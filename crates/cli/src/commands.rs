//! Subcommand implementations.

use std::io::{self, Write};

use gsword_core::prelude::*;
use gsword_core::{datasets, estimators, graph, query};

use crate::args::Args;

/// Usage text shown on errors and `--help`.
pub const USAGE: &str = "\
usage:
  gsword stats    <graph> [--storage csr|compressed]
  gsword generate <dataset> -o <file>
  gsword pack     <dataset|all> -o <file|dir> [--scale N]
  gsword estimate <graph> -q <query> [--samples N] [--estimator wj|alley]
                  [--backend cpu|gpu-baseline|gsword] [--seed N] [--trawl]
                  [--storage csr|compressed] [--decode-cache BYTES]
                  [--sanitize]
                  [--devices N] [--streams N] [--sim-workers N]
                  [--profile [--trace-out <file>]]
  gsword exact    <graph> -q <query> [--budget N] [--threads N]
  gsword motifs   <graph> [--samples N] [--label L]
  gsword orders   <graph> -q <query> [--probe N]

<graph>: dataset name (yeast hprd wordnet patents dblp orkut eu2005 uk2002),
         a t/v/e file, a SNAP edge list (*.el), or a packed image
         (written by `gsword pack`; detected by magic, loaded via mmap)
<query>: a t/v/e query file, or extract:<k>[:<seed>]
--storage picks the data-graph backend: csr (in-memory, default) or
compressed (succinct gap-coded adjacency; the default for packed images).
Estimates are bit-identical across backends.
--decode-cache sets the compressed backend's decoded-adjacency budget per
graph in bytes (default 16 MiB). When the budget holds the whole decoded
adjacency, the first adjacency read decodes it once; otherwise every read
streams the Rice decoder (0 always streams). Purely a wall-clock knob:
results and modeled counters are identical either way.
--sim-workers fans each kernel launch's blocks over N host threads
(0 = auto, 1 = serial; default 1). Results are bit-identical for every N.
pack writes a dataset as a compressed mmap-able image; --scale N divides
the paper's |V| (default: the suite scale; --scale 1 = full paper size).
--sanitize runs the device kernels under the compute-sanitizer analogue's
synccheck (warp primitives' participation masks); any violation fails the
run.
--devices/--streams shard device launches over N software devices with N
streams each (estimates are invariant in the topology; default 1x1).
--profile records a kernel timeline and per-kernel metrics (the Nsight
analogue); --trace-out writes the timeline as Chrome chrome://tracing JSON.";

/// Why a subcommand ended before it finished.
enum Stop {
    /// An error, reported with the usage text.
    Error(String),
    /// Stdout was closed by its reader (`gsword stats yeast | head -3`):
    /// the end of the output, not an error.
    Closed,
}

impl From<String> for Stop {
    fn from(e: String) -> Self {
        Stop::Error(e)
    }
}

impl From<&str> for Stop {
    fn from(e: &str) -> Self {
        Stop::Error(e.to_string())
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::BrokenPipe {
            Stop::Closed
        } else {
            Stop::Error(format!("cannot write output: {e}"))
        }
    }
}

/// A subcommand: it reads its arguments and writes its output to `out`.
type Command = fn(&Args, &mut dyn Write) -> Result<(), Stop>;

/// Each subcommand with the flags it reads: those that take a value, then
/// the switches. `--storage` and `--decode-cache` are read by the graph
/// loader ([`data_arg`]).
const COMMANDS: &[(&str, Command, &[&str], &[&str])] = &[
    ("stats", cmd_stats, &["storage", "decode-cache"], &[]),
    ("generate", cmd_generate, &["output"], &[]),
    ("pack", cmd_pack, &["output", "scale"], &[]),
    (
        "estimate",
        cmd_estimate,
        &[
            "storage",
            "decode-cache",
            "query",
            "samples",
            "estimator",
            "backend",
            "seed",
            "devices",
            "streams",
            "sim-workers",
            "trace-out",
        ],
        &["trawl", "sanitize", "profile"],
    ),
    (
        "exact",
        cmd_exact,
        &["storage", "decode-cache", "query", "budget", "threads"],
        &[],
    ),
    (
        "motifs",
        cmd_motifs,
        &["storage", "decode-cache", "samples", "label"],
        &[],
    ),
    (
        "orders",
        cmd_orders,
        &["storage", "decode-cache", "query", "probe"],
        &[],
    ),
];

/// Route a command line to its subcommand, which writes to stdout. A
/// closed stdout ends the command quietly.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err("missing subcommand".to_string());
    };
    let Some(&(_, run, flags, switches)) = COMMANDS.iter().find(|c| c.0 == cmd) else {
        return Err(format!("unknown subcommand '{cmd}'"));
    };
    let args = Args::parse(&argv[1..], flags, switches)?;
    let out = &mut io::stdout();
    let result = if args.has("help") {
        writeln!(out, "{USAGE}").map_err(Stop::from)
    } else {
        run(&args, out)
    };
    match result {
        Ok(()) | Err(Stop::Closed) => Ok(()),
        Err(Stop::Error(e)) => Err(e),
    }
}

/// Whether `path` starts with the packed-image magic.
fn is_packed_file(path: &str) -> bool {
    use std::io::Read;
    let Ok(mut f) = std::fs::File::open(path) else {
        return false;
    };
    let mut head = [0u8; 8];
    f.read_exact(&mut head).is_ok() && head == graph::compressed::MAGIC
}

fn load_data(
    spec: &str,
    storage: Option<&str>,
    decode_cache: Option<usize>,
) -> Result<AnyGraph, String> {
    let tune = |c: CompressedGraph| match decode_cache {
        Some(bytes) => c.with_decode_cache(bytes),
        None => c,
    };
    let into_backend = |g: Graph| -> Result<AnyGraph, String> {
        match storage.unwrap_or("csr") {
            "csr" => Ok(AnyGraph::Csr(g)),
            "compressed" => Ok(AnyGraph::Compressed(tune(CompressedGraph::from_graph(&g)))),
            other => Err(format!(
                "unknown storage '{other}' (expected csr|compressed)"
            )),
        }
    };
    if datasets::dataset_names().contains(&spec) {
        return into_backend(datasets::dataset(spec));
    }
    if is_packed_file(spec) {
        let c = CompressedGraph::load(spec)
            .map_err(|e| format!("cannot load packed graph '{spec}': {e}"))?;
        // Packed images stay compressed unless CSR is asked for explicitly.
        return match storage {
            None | Some("compressed") => Ok(AnyGraph::Compressed(tune(c))),
            Some("csr") => Ok(AnyGraph::Csr(c.to_csr())),
            Some(other) => Err(format!(
                "unknown storage '{other}' (expected csr|compressed)"
            )),
        };
    }
    let loaded = if spec.ends_with(".el") {
        graph::io::load_edge_list(spec)
    } else {
        graph::io::load_graph(spec)
    };
    into_backend(loaded.map_err(|e| format!("cannot load graph '{spec}': {e}"))?)
}

fn load_query_spec(data: &AnyGraph, spec: &str) -> Result<QueryGraph, String> {
    if let Some(rest) = spec.strip_prefix("extract:") {
        let mut parts = rest.split(':');
        let k: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("extract needs a size, e.g. extract:8")?;
        if !(2..=QueryGraph::MAX_VERTICES).contains(&k) {
            return Err(format!(
                "extract size {k} is out of range (2..={})",
                QueryGraph::MAX_VERTICES
            ));
        }
        let seed: u64 = match parts.next() {
            None => 42,
            Some(s) => s
                .parse()
                .map_err(|_| format!("bad extract seed '{s}' (expected an integer)"))?,
        };
        return QueryGraph::extract(data, k, seed)
            .ok_or_else(|| format!("could not extract a {k}-vertex query (seed {seed})"));
    }
    query::io::load_query(spec).map_err(|e| format!("cannot load query '{spec}': {e}"))
}

fn data_arg(args: &Args) -> Result<AnyGraph, String> {
    let decode_cache = match args.get("decode-cache") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad --decode-cache: {v}"))?),
    };
    load_data(
        args.positional().ok_or("missing <graph> argument")?,
        args.get("storage"),
        decode_cache,
    )
}

fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<(), Stop> {
    let g = data_arg(args)?;
    writeln!(out, "backend: {}", g.backend_name())?;
    writeln!(out, "{}", GraphStats::of(&g))?;
    let lh = graph::ops::label_histogram(&g);
    let mut top: Vec<(usize, usize)> = lh.into_iter().enumerate().collect();
    top.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    write!(out, "top labels:")?;
    for (l, c) in top.iter().take(5).filter(|&&(_, c)| c > 0) {
        write!(out, " {l}×{c}")?;
    }
    writeln!(out)?;
    let (_, comps) = graph::ops::connected_components(&g);
    writeln!(out, "connected components: {comps}")?;
    Ok(())
}

fn cmd_generate(args: &Args, out: &mut dyn Write) -> Result<(), Stop> {
    let name = args.positional().ok_or("missing <dataset> argument")?;
    let path = args.get("output").ok_or("missing -o <file>")?;
    if !datasets::dataset_names().contains(&name) {
        return Err(format!("unknown dataset '{name}'").into());
    }
    let g = datasets::dataset(name);
    graph::io::save_graph(&g, path).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "wrote {} ({} vertices, {} edges)",
        path,
        g.num_vertices(),
        g.num_edges()
    )?;
    Ok(())
}

fn cmd_pack(args: &Args, out: &mut dyn Write) -> Result<(), Stop> {
    let name = args.positional().ok_or("missing <dataset|all> argument")?;
    let path = args.get("output").ok_or("missing -o <file|dir>")?;
    let scale: Option<u32> = match args.get("scale") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad --scale: {v}"))?),
    };
    if name == "all" {
        std::fs::create_dir_all(path).map_err(|e| format!("cannot create '{path}': {e}"))?;
        for spec in &datasets::SPECS {
            let file = std::path::Path::new(path).join(format!("{}.gsw", spec.name));
            pack_one(spec, scale, file.to_str().expect("utf-8 path"), out)?;
        }
        return Ok(());
    }
    let spec = datasets::spec(name).ok_or_else(|| format!("unknown dataset '{name}'"))?;
    pack_one(spec, scale, path, out)
}

fn pack_one(
    spec: &datasets::DatasetSpec,
    scale: Option<u32>,
    path: &str,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    let div = scale.unwrap_or(spec.scale);
    let g = spec.generate_at(div);
    let c = CompressedGraph::from_graph(&g);
    c.save(path)
        .map_err(|e| format!("cannot write '{path}': {e}"))?;
    let csr = g.mem_bytes();
    let packed = GraphStorage::mem_bytes(&c);
    writeln!(
        out,
        "{}: scale 1/{div} |V|={} |E|={} csr={}B packed={}B ({:.1}% of csr) -> {path}",
        spec.name,
        g.num_vertices(),
        g.num_edges(),
        csr,
        packed,
        100.0 * packed as f64 / csr as f64
    )?;
    Ok(())
}

fn parse_backend(args: &Args) -> Result<Backend, String> {
    match args.get("backend").unwrap_or("gsword") {
        "cpu" => Ok(Backend::Cpu { threads: 0 }),
        "gpu-baseline" => Ok(Backend::GpuBaseline),
        "gsword" => Ok(Backend::Gsword),
        other => Err(format!("unknown backend '{other}'")),
    }
}

fn parse_estimator(args: &Args) -> Result<EstimatorKind, String> {
    match args.get("estimator").unwrap_or("alley") {
        "wj" | "wanderjoin" => Ok(EstimatorKind::WanderJoin),
        "al" | "alley" => Ok(EstimatorKind::Alley),
        other => Err(format!("unknown estimator '{other}'")),
    }
}

fn cmd_estimate(args: &Args, out: &mut dyn Write) -> Result<(), Stop> {
    let data = data_arg(args)?;
    let q = load_query_spec(&data, args.get("query").ok_or("missing -q <query>")?)?;
    let samples: u64 = args.num("samples", 100_000)?;
    let seed: u64 = args.num("seed", 42)?;
    let devices: usize = args.num("devices", 1)?;
    let streams: usize = args.num("streams", 1)?;
    let sim_workers: usize = args.num("sim-workers", 1)?;
    if devices == 0 || streams == 0 {
        return Err("--devices and --streams must be at least 1".into());
    }
    let sanitize = args.has("sanitize");
    let profile = args.has("profile");
    if args.get("trace-out").is_some() && !profile {
        return Err("--trace-out needs --profile".into());
    }
    let mut b = Gsword::builder(&data, &q)
        .samples(samples)
        .seed(seed)
        .estimator(parse_estimator(args)?)
        .backend(parse_backend(args)?)
        .num_devices(devices)
        .streams_per_device(streams)
        .sim_workers(sim_workers)
        .sanitize(sanitize)
        .profile(profile);
    if args.has("trawl") {
        b = b.trawling(TrawlConfig::default());
    }
    let r = b.run().map_err(|e| e.to_string())?;
    writeln!(out, "estimate: {:.1}", r.estimate)?;
    writeln!(
        out,
        "samples: {} (valid {}, success ratio {:.2e}, ±95% CI {:.1}%)",
        r.sampler.samples,
        r.sampler.valid,
        r.sampler.success_ratio(),
        r.sampler.rel_ci95() * 100.0
    )?;
    if let Some(t) = r.trawl {
        writeln!(
            out,
            "trawling estimate: {t:.1} ({} enumerations completed)",
            r.trawl_completed
        )?;
    }
    if let Some(ms) = r.modeled_ms {
        writeln!(out, "modeled device time: {ms:.2} ms")?;
    }
    writeln!(out, "wall time: {:.1} ms", r.wall_ms)?;
    if let Some(sr) = &r.sanitizer {
        writeln!(out, "{sr}")?;
        if !sr.is_clean() {
            return Err(format!("sanitizer found {} violation(s)", sr.total).into());
        }
    } else if sanitize {
        writeln!(out, "sanitizer: no device launch to check (cpu backend)")?;
    }
    match &r.prof {
        Some(prof) => {
            write!(out, "{prof}")?;
            prof.validate()
                .map_err(|e| format!("profiler invariant violated: {e}"))?;
            if let Some(path) = args.get("trace-out") {
                let json = prof.to_chrome_trace();
                // Self-check the export before writing: a trace that does
                // not parse is worse than no trace.
                gsword_core::simt::prof::json::validate_chrome_trace(&json)
                    .map_err(|e| format!("trace export failed validation: {e}"))?;
                std::fs::write(path, &json)
                    .map_err(|e| format!("cannot write trace to '{path}': {e}"))?;
                writeln!(
                    out,
                    "chrome trace written to {path} (load in chrome://tracing)"
                )?;
            }
        }
        None if profile => writeln!(out, "profiler: no device launch to profile (cpu backend)")?,
        None => {}
    }
    Ok(())
}

fn cmd_exact(args: &Args, out: &mut dyn Write) -> Result<(), Stop> {
    let data = data_arg(args)?;
    let q = load_query_spec(&data, args.get("query").ok_or("missing -q <query>")?)?;
    let budget: u64 = args.num("budget", 0)?;
    let threads: usize = args.num("threads", 0)?;
    match gsword_core::exact_count(&data, &q, budget, threads) {
        Some(c) => writeln!(out, "exact count: {c}")?,
        None => writeln!(out, "enumeration budget exhausted (raise --budget)")?,
    }
    Ok(())
}

fn cmd_motifs(args: &Args, out: &mut dyn Write) -> Result<(), Stop> {
    let data = data_arg(args)?;
    let samples: u64 = args.num("samples", 100_000)?;
    let label: Label = match args.get("label") {
        Some(v) => v.parse().map_err(|_| "bad --label")?,
        None => (0..data.label_count() as Label)
            .max_by_key(|&l| data.vertices_with_label(l).len())
            .unwrap_or(0),
    };
    writeln!(
        out,
        "census over label {label} ({} vertices)",
        data.vertices_with_label(label).len()
    )?;
    for (name, motif) in query::motifs::census_motifs(label) {
        let r = Gsword::builder(&data, &motif)
            .samples(samples)
            .run()
            .map_err(|e| e.to_string())?;
        writeln!(out, "{name:<16} {:>14.0}", r.estimate)?;
    }
    Ok(())
}

fn cmd_orders(args: &Args, out: &mut dyn Write) -> Result<(), Stop> {
    let data = data_arg(args)?;
    let q = load_query_spec(&data, args.get("query").ok_or("missing -q <query>")?)?;
    let probe: u64 = args.num("probe", 2_000)?;
    let (cg, _) = build_candidate_graph(&data, &q, &BuildConfig::default());
    let (best, scores) = estimators::select_order(
        &cg,
        &data,
        &q,
        &Alley,
        &estimators::OrderSelectConfig {
            probe_samples: probe,
            ..Default::default()
        },
    );
    writeln!(
        out,
        "probed {} orders; best: {:?}",
        scores.len(),
        best.phi()
    )?;
    for (i, s) in scores.iter().enumerate() {
        writeln!(
            out,
            "#{i}: variance {:.3e}, success ratio {:.3e}, order {:?}",
            s.variance,
            s.success_ratio,
            s.order.phi()
        )?;
    }
    Ok(())
}
