//! Running queries: the untraced builder path, the traced per-layer path,
//! and the check of every execution against the warm-up result.

use std::time::Instant;

use gsword_core::candidate::{build_candidate_graph, BuildConfig};
use gsword_core::engine::{run_engine, EngineConfig};
use gsword_core::estimators::{with_estimator, Estimate, EstimatorKind, QueryCtx};
use gsword_core::graph::AnyGraph;
use gsword_core::query::{make_order, OrderKind};
use gsword_core::simt::KernelCounters;
use gsword_core::{Backend, Gsword};

use crate::workload::{Query, Spec};

/// What one execution produced; every field is deterministic in the query
/// and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// The sampler's Horvitz–Thompson estimate.
    pub estimate: Estimate,
    /// Merged device counters.
    pub counters: KernelCounters,
    /// Modeled device milliseconds.
    pub modeled_ms: f64,
    /// Samples collected, inherited continuations included.
    pub collected: u64,
}

impl Outcome {
    /// Whether the estimate is usable: finite and not negative.
    pub fn is_sane(&self) -> bool {
        let v = self.estimate.value();
        v.is_finite() && v >= 0.0 && self.modeled_ms.is_finite()
    }

    /// Whether `self` repeats `reference` bit for bit.
    pub fn repeats(&self, reference: &Outcome) -> bool {
        self.is_sane()
            && self.estimate == reference.estimate
            && self.counters == reference.counters
            && self.modeled_ms.to_bits() == reference.modeled_ms.to_bits()
            && self.collected == reference.collected
    }
}

/// Run one query the way users do: `Gsword::builder(..).run()`.
pub fn run_query(spec: &Spec, data: &AnyGraph, q: &Query) -> Result<Outcome, String> {
    let report = Gsword::builder(data, &q.query)
        .samples(spec.samples)
        .seed(q.seed)
        .backend(Backend::Gsword)
        .sim_workers(spec.sim_workers)
        .run()
        .map_err(|e| e.to_string())?;
    Ok(Outcome {
        estimate: report.sampler,
        counters: report.counters.ok_or("device run reported no counters")?,
        modeled_ms: report
            .modeled_ms
            .ok_or("device run reported no modeled time")?,
        collected: report.samples_collected,
    })
}

/// Host milliseconds of each layer call in one traced execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerMs {
    /// `build_candidate_graph`.
    pub build: f64,
    /// `make_order`.
    pub order: f64,
    /// `QueryCtx::new`.
    pub ctx: f64,
    /// `run_engine`.
    pub engine: f64,
    /// The whole execution.
    pub total: f64,
}

impl LayerMs {
    /// Add `other`, each time multiplied by `factor`.
    pub fn add(&mut self, other: &LayerMs, factor: f64) {
        self.build += other.build * factor;
        self.order += other.order * factor;
        self.ctx += other.ctx * factor;
        self.engine += other.engine * factor;
        self.total += other.total * factor;
    }
}

/// One traced interval. Times are microseconds since the trace began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, or `query` for the whole execution.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
    /// Index of the query in the workload.
    pub query: usize,
    /// Timed pass the execution belongs to.
    pub pass: usize,
}

/// In-memory span log, written out only when the benchmark ends.
pub struct Trace {
    t0: Instant,
    /// Every recorded span.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"query\":{},\"pass\":{}}}",
                    s.name, s.start_us, s.end_us, parent, s.query, s.pass
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Run one query through the layer functions, in the builder's order and
/// with the builder's settings, timing each call and logging it as a span.
/// Also returns the candidate-graph bytes.
pub fn run_query_traced(
    spec: &Spec,
    data: &AnyGraph,
    q: &Query,
    id: usize,
    pass: usize,
    trace: &mut Trace,
) -> (Outcome, LayerMs, usize) {
    let root = trace.spans.len();
    let t0 = Instant::now();
    trace.spans.push(Span {
        name: "query",
        start_us: trace.us(t0),
        end_us: 0.0,
        parent: None,
        query: id,
        pass,
    });
    let mut stamps = [t0; 5];
    let (cg, stats) = build_candidate_graph(data, &q.query, &BuildConfig::default());
    stamps[1] = Instant::now();
    let order = make_order(OrderKind::QuickSi, &q.query, data);
    stamps[2] = Instant::now();
    let ctx = QueryCtx::new(&cg, &order);
    stamps[3] = Instant::now();
    let mut cfg = EngineConfig::gsword(spec.samples).with_seed(q.seed);
    cfg.sim_workers = spec.sim_workers;
    let report = with_estimator(EstimatorKind::Alley, |est| run_engine(&ctx, est, &cfg));
    stamps[4] = Instant::now();

    const LAYERS: [&str; 4] = [
        "candidate.build",
        "query.order",
        "estimators.ctx",
        "engine.run",
    ];
    for (i, name) in LAYERS.iter().enumerate() {
        trace.spans.push(Span {
            name,
            start_us: trace.us(stamps[i]),
            end_us: trace.us(stamps[i + 1]),
            parent: Some(root),
            query: id,
            pass,
        });
    }
    trace.spans[root].end_us = trace.us(stamps[4]);
    let ms = |a: usize, b: usize| stamps[b].duration_since(stamps[a]).as_secs_f64() * 1e3;
    let layers = LayerMs {
        build: ms(0, 1),
        order: ms(1, 2),
        ctx: ms(2, 3),
        engine: ms(3, 4),
        total: ms(0, 4),
    };
    let outcome = Outcome {
        estimate: report.estimate,
        counters: report.counters,
        modeled_ms: report.modeled_ms,
        collected: report.samples_collected,
    };
    (outcome, layers, stats.bytes)
}
