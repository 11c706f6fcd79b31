//! `perfbench`: run one workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rsv-serial [--seed N] [--seconds S] [--trace 0|1] \
//!     [--spans-out FILE]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! See `perfbench/README.md` for what each metric means.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use gsword_core::simt::KernelCounters;
use gsword_perfbench::calibrate::{speed_factor, Calibration};
use gsword_perfbench::measure::{run_query, run_query_traced, LayerMs, Outcome, Trace};
use gsword_perfbench::stats::{gmean_finite, median, peak_rss_mb, percentile};
use gsword_perfbench::workload::{
    self, decode_cache_bytes, graph_bytes, Setup, Spec, CONFIRM_SEED, DEFAULT_SEED, WORKLOADS,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Calibration loops before each set-up.
const SETUP_CALIBRATIONS: usize = 3;
/// Queries between two calibration loops in a timed pass.
const CALIBRATE_EVERY: usize = 8;
/// Timed passes over the query mix, at least.
const MIN_PASSES: usize = 3;
/// Untraced and traced passes each, at least, in a traced run.
const MIN_TRACED_PASSES: usize = 2;
/// Timed executions, at least: `query_ms_p90` needs ten above it.
const MIN_EXECUTIONS: usize = 100;
const MIB: f64 = (1 << 20) as f64;

const USAGE: &str = "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
[--spans-out FILE]";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
                spec = Some(workload::spec(&value).ok_or(format!(
                    "unknown workload '{value}'; expected one of {names:?}"
                ))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let spec = spec.ok_or("--workload is required")?;
    if spans_out.is_some() && !trace {
        return Err("--spans-out needs --trace 1".into());
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        spans_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Executions attempted and failed, over the whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, got: Result<Outcome, String>, reference: &Option<Outcome>) {
        self.attempted += 1;
        let ok = matches!((&got, reference), (Ok(o), Some(r)) if o.repeats(r));
        if !ok {
            self.failed += 1;
        }
    }
}

/// Host times of one kind of timed pass, scaled to the nominal machine
/// speed pass by pass.
#[derive(Default)]
struct Timed {
    /// Every execution's host ms.
    exec_ms: Vec<f64>,
    /// Summed wall seconds of the executions and their checks.
    wall_s: f64,
    /// The same, unscaled.
    raw_wall_s: f64,
    /// Each pass's speed factor.
    factors: Vec<f64>,
}

impl Timed {
    fn add_pass(&mut self, ms: &[f64], wall_s: f64, factor: f64) {
        self.exec_ms.extend(ms.iter().map(|m| m * factor));
        self.wall_s += wall_s * factor;
        self.raw_wall_s += wall_s;
        self.factors.push(factor);
    }

    fn enough(&self, min_passes: usize) -> bool {
        self.factors.len() >= min_passes && self.exec_ms.len() >= MIN_EXECUTIONS
    }

    fn queries_per_s(&self) -> f64 {
        self.exec_ms.len() as f64 / self.wall_s
    }
}

/// Per-layer sums over the traced executions, scaled like [`Timed`].
#[derive(Default)]
struct Layers {
    sum: LayerMs,
    executions: usize,
    warp_instr: u64,
    cg_bytes: Vec<usize>,
}

type Metric = (&'static str, f64, &'static str, String);

fn run(args: &Args) -> Result<bool, String> {
    let spec = &args.spec;
    let image_dir = std::env::current_exe()
        .map_err(|e| format!("locating the benchmark binary: {e}"))?
        .parent()
        .ok_or("the benchmark binary has no parent directory")?
        .join("perfbench-images");
    let mut calibration = Calibration::default();

    // 1. Set-up, repeated so `setup_s` is a median; the last one is kept.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut load_ms = Vec::with_capacity(SETUP_REPS);
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let loops: Vec<f64> = (0..SETUP_CALIBRATIONS)
            .map(|_| calibration.run_ms(1))
            .collect();
        let factor = speed_factor(&loops);
        let s = workload::setup(spec, args.seed, &image_dir).map_err(|e| e.to_string())?;
        setup_s.push(s.total_s * factor);
        load_ms.push(s.load_ms * factor);
        setup = Some(s);
    }
    let setup = setup.expect("SETUP_REPS > 0");
    let graph_mb = graph_bytes(&setup.graphs) as f64 / MIB;
    let queries = &setup.queries;
    if queries.is_empty() {
        return Err("the workload extracted no queries".into());
    }

    // 2. Untimed warm-up: fills caches and gives the reference outcomes.
    let mut tally = Tally::default();
    let mut reference = Vec::with_capacity(queries.len());
    for q in queries {
        let got = run_query(spec, &setup.graphs[q.graph], q);
        let ok = got.as_ref().ok().filter(|o| o.is_sane()).copied();
        tally.attempted += 1;
        tally.failed += u64::from(ok.is_none());
        reference.push(ok);
    }

    // 3. Timed passes over the whole mix, with the calibration loop between
    //    groups of queries; a traced run alternates untraced and traced
    //    passes so both see the same machine state.
    let mut untraced = Timed::default();
    let mut traced = Timed::default();
    let mut layers = Layers::default();
    let mut trace = Trace::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    for pass in 0.. {
        let traced_pass = args.trace && pass % 2 == 1;
        let mut loops = Vec::new();
        let mut ms = Vec::with_capacity(queries.len());
        let mut pass_layers = LayerMs::default();
        let mut wall = Duration::ZERO;
        for (id, q) in queries.iter().enumerate() {
            if id % CALIBRATE_EVERY == 0 {
                loops.push(calibration.run_ms(spec.sim_workers));
            }
            let data = &setup.graphs[q.graph];
            let t = Instant::now();
            if traced_pass {
                let (got, l, cg_bytes) = run_query_traced(spec, data, q, id, pass, &mut trace);
                ms.push(l.total);
                pass_layers.add(&l, 1.0);
                layers.executions += 1;
                layers.warp_instr += got.counters.alu_instructions + got.counters.mem_instructions;
                if traced.factors.is_empty() {
                    layers.cg_bytes.push(cg_bytes);
                }
                tally.check(Ok(got), &reference[id]);
            } else {
                let got = run_query(spec, data, q);
                ms.push(t.elapsed().as_secs_f64() * 1e3);
                tally.check(got, &reference[id]);
            }
            wall += t.elapsed();
        }
        let factor = speed_factor(&loops);
        if traced_pass {
            layers.sum.add(&pass_layers, factor);
            traced.add_pass(&ms, wall.as_secs_f64(), factor);
        } else {
            untraced.add_pass(&ms, wall.as_secs_f64(), factor);
        }
        let enough = if args.trace {
            untraced.enough(MIN_TRACED_PASSES) && traced.enough(MIN_TRACED_PASSES)
        } else {
            untraced.enough(MIN_PASSES)
        };
        if enough && start.elapsed() >= budget {
            break;
        }
    }
    let decode_cache_mb = decode_cache_bytes(&setup.graphs) as f64 / MIB;
    let peak_rss = peak_rss_mb().map_err(|e| format!("reading peak RSS: {e}"))?;

    // Deterministic aggregates over the reference outcomes.
    let outcomes: Vec<&Outcome> = reference.iter().flatten().collect();
    let modeled_ms_sum: f64 = outcomes.iter().map(|o| o.modeled_ms).sum();
    let cis: Vec<f64> = outcomes.iter().map(|o| o.estimate.rel_ci95()).collect();
    let (rel_ci95_gmean, ci_excluded) = gmean_finite(&cis);
    let mut counters = KernelCounters::default();
    for o in &outcomes {
        counters.merge(&o.counters);
    }
    let collected: u64 = outcomes.iter().map(|o| o.collected).sum();
    let fetched: u64 = outcomes.iter().map(|o| o.estimate.samples).sum();

    println!(
        "perfbench: workload {}, seed {}, {} s, trace {}; {} queries over {} graphs",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        queries.len(),
        setup.graphs.len()
    );
    println!("{}", provenance(args, &untraced, &traced));

    let n = untraced.exec_ms.len();
    let metrics: Vec<Metric> = if !args.trace {
        vec![
            (
                "queries_per_s",
                untraced.queries_per_s(),
                "1/s",
                format!(
                    "{n} timed executions in {:.3} s, {} passes; unscaled {:.3}/s",
                    untraced.wall_s,
                    untraced.factors.len(),
                    n as f64 / untraced.raw_wall_s
                ),
            ),
            (
                "query_ms_p50",
                percentile(&untraced.exec_ms, 0.5),
                "ms",
                format!("over {n} executions"),
            ),
            (
                "query_ms_p90",
                percentile(&untraced.exec_ms, 0.9),
                "ms",
                format!(
                    "over {n} executions, {} above it",
                    n - (0.9 * n as f64).ceil() as usize
                ),
            ),
            (
                "modeled_ms_sum",
                modeled_ms_sum,
                "ms",
                format!("{} queries, deterministic", outcomes.len()),
            ),
            (
                "rel_ci95_gmean",
                rel_ci95_gmean,
                "ratio",
                format!(
                    "{} queries, {ci_excluded} excluded (no finite CI)",
                    cis.len() - ci_excluded
                ),
            ),
            ("peak_rss_mb", peak_rss, "MiB", "VmHWM".into()),
            (
                "setup_s",
                median(&setup_s),
                "s",
                format!("median of {SETUP_REPS} set-ups"),
            ),
        ]
    } else {
        let mut m = layers.metrics();
        m.extend([
            (
                "graph.load_ms",
                median(&load_ms),
                "ms",
                format!("median of {SETUP_REPS} set-ups"),
            ),
            (
                "graph.mem_mb",
                graph_mb,
                "MiB",
                "GraphStorage::mem_bytes after set-up".into(),
            ),
            (
                "graph.decode_cache_mb",
                decode_cache_mb,
                "MiB",
                "after the timed passes".into(),
            ),
            (
                "engine.collected_per_fetched",
                collected as f64 / fetched as f64,
                "ratio",
                "deterministic".into(),
            ),
            (
                "simt.warp_efficiency",
                counters.warp_efficiency(),
                "ratio",
                "deterministic".into(),
            ),
            (
                "simt.tx_per_load",
                counters.mean_tx_per_load(),
                "ratio",
                "deterministic".into(),
            ),
            (
                "simt.mem_transactions",
                counters.mem_transactions as f64,
                "count",
                "deterministic".into(),
            ),
            (
                "simt.divergent_replays",
                counters.divergent_replays as f64,
                "count",
                "deterministic".into(),
            ),
            (
                "trace.overhead_ratio",
                traced.queries_per_s() / untraced.queries_per_s(),
                "ratio",
                format!(
                    "traced {:.3}/s over untraced {:.3}/s",
                    traced.queries_per_s(),
                    untraced.queries_per_s()
                ),
            ),
        ]);
        m
    };
    for (name, value, unit, note) in &metrics {
        println!("  {name:<30} {value:>14.6} {unit:<6} {note}");
    }
    println!(
        "  {:<30} {:>14.6} {:<6} {} of {} executions (the result's failed/attempted)",
        "query_fail_ratio",
        tally.failed as f64 / tally.attempted as f64,
        "ratio",
        tally.failed,
        tally.attempted
    );

    if let Some(path) = &args.spans_out {
        std::fs::write(path, trace.to_json())
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        println!("spans: {} written to {}", trace.spans.len(), path.display());
    }

    // JSON carries finite numbers only, and a non-finite deterministic
    // metric means the run measured nothing.
    if !(modeled_ms_sum.is_finite() && rel_ci95_gmean.is_finite()) {
        return Err("a deterministic metric is not finite".into());
    }
    if let Some((name, ..)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not finite"));
    }
    let correct = tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(correct)
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        let n = self.executions as f64;
        let note = format!("mean over {} traced executions", self.executions);
        let share = format!("share of traced query time, {} executions", self.executions);
        vec![
            ("candidate.build_ms", self.sum.build / n, "ms", note.clone()),
            (
                "candidate.build_share",
                self.sum.build / self.sum.total,
                "ratio",
                share.clone(),
            ),
            (
                "candidate.cg_mb",
                self.cg_bytes.iter().sum::<usize>() as f64 / MIB,
                "MiB",
                format!(
                    "BuildStats.bytes summed over {} queries",
                    self.cg_bytes.len()
                ),
            ),
            ("query.order_ms", self.sum.order / n, "ms", note.clone()),
            ("estimators.ctx_ms", self.sum.ctx / n, "ms", note.clone()),
            ("engine.run_ms", self.sum.engine / n, "ms", note),
            (
                "engine.run_share",
                self.sum.engine / self.sum.total,
                "ratio",
                share,
            ),
            (
                "engine.warp_instr_per_s",
                self.warp_instr as f64 / (self.sum.engine / 1e3),
                "1/s",
                "alu+mem warp instructions over engine host time".into(),
            ),
        ]
    }
}

/// One line recording what produced the result.
fn provenance(args: &Args, untraced: &Timed, traced: &Timed) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (rev, dirty) = git_state();
    format!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \
\"confirm_seed\": {CONFIRM_SEED}, \"available_parallelism\": {parallelism}, \"git_rev\": \"{rev}\", \
\"git_dirty\": {dirty}, \"timed_executions\": {}, \"traced_executions\": {}, \"setup_reps\": {SETUP_REPS}, \
\"speed_factor\": {:.4}}}",
        args.spec.name,
        args.seed,
        untraced.exec_ms.len(),
        traced.exec_ms.len(),
        median(&untraced.factors)
    )
}

/// The checkout's git revision and whether its tree is dirty; `unknown`
/// outside a git checkout of this repository.
fn git_state() -> (String, String) {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top =
        git(&["rev-parse", "--show-toplevel"]).and_then(|t| PathBuf::from(t).canonicalize().ok());
    if here.is_none() || here != top {
        return ("unknown".into(), "null".into());
    }
    let rev = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty =
        git(&["status", "--porcelain"]).map_or("null".into(), |s| (!s.is_empty()).to_string());
    (rev, dirty)
}
