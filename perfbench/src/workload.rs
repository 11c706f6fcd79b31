//! The benchmark's workloads: which graphs each one loads, which queries it
//! extracts from the seed, and how the builder runs them.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gsword_core::graph::compressed::pack_to_vec;
use gsword_core::graph::{dataset, AnyGraph, CompressedGraph, GraphStorage};
use gsword_core::query::QueryGraph;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed reserved for confirming a claimed gain: never tune against it.
pub const CONFIRM_SEED: u64 = 20_240_612;

/// How a workload stores its data graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// In-memory CSR, generated in set-up.
    Csr,
    /// `GSWDPK01` images packed in set-up and mmap-loaded through
    /// `CompressedGraph::load`, with this per-thread decode-cache budget.
    Packed {
        /// Decode-cache budget in bytes.
        decode_cache: usize,
    },
}

/// One workload: a fixed query mix and the builder settings it runs under.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Suite datasets the queries come from.
    pub datasets: &'static [&'static str],
    /// Queries per (dataset, size) cell.
    pub per_cell: usize,
    /// Sample budget per query.
    pub samples: u64,
    /// Builder `sim_workers`.
    pub sim_workers: usize,
    /// Data-graph storage.
    pub storage: Storage,
}

const RSV_DATASETS: &[&str] = &["eu2005", "orkut", "uk2002", "patents", "wordnet", "yeast"];
const PACKED_DATASETS: &[&str] = &["eu2005", "orkut", "uk2002", "patents", "wordnet"];
/// Query sizes (vertices) extracted from every dataset.
const SIZES: &[usize] = &[4, 8, 16];

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "rsv-serial",
        datasets: RSV_DATASETS,
        per_cell: 10,
        samples: 5_000,
        sim_workers: 1,
        storage: Storage::Csr,
    },
    Spec {
        name: "rsv-par2",
        datasets: RSV_DATASETS,
        per_cell: 10,
        samples: 5_000,
        sim_workers: 2,
        storage: Storage::Csr,
    },
    Spec {
        name: "packed-fit",
        datasets: PACKED_DATASETS,
        per_cell: 8,
        samples: 2_000,
        sim_workers: 1,
        storage: Storage::Packed {
            decode_cache: 16 << 20,
        },
    },
    Spec {
        name: "packed-spill",
        datasets: PACKED_DATASETS,
        per_cell: 8,
        samples: 2_000,
        sim_workers: 1,
        storage: Storage::Packed {
            decode_cache: 256 << 10,
        },
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().find(|s| s.name == name).copied()
}

/// One query of a workload.
#[derive(Debug, Clone)]
pub struct Query {
    /// Dataset the query was extracted from.
    pub dataset: &'static str,
    /// Index of its data graph in [`Setup::graphs`].
    pub graph: usize,
    /// Query size in vertices.
    pub k: usize,
    /// Position inside its (dataset, size) cell.
    pub index: usize,
    /// The query graph.
    pub query: QueryGraph,
    /// Sampling seed passed to the builder.
    pub seed: u64,
}

impl Query {
    /// A name that is stable across workloads for the same seed, so results
    /// of different workloads can be matched query by query.
    pub fn key(&self) -> String {
        format!("{}/k{}/{}", self.dataset, self.k, self.index)
    }
}

/// Loaded graphs and extracted queries, ready to run.
pub struct Setup {
    /// Data graphs, in the order of [`Spec::datasets`].
    pub graphs: Vec<AnyGraph>,
    /// The query mix.
    pub queries: Vec<Query>,
    /// Milliseconds spent generating, packing and loading the graphs.
    pub load_ms: f64,
    /// Seconds for the whole set-up, query extraction included.
    pub total_s: f64,
}

/// splitmix64: derives independent seeds from the workload seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    })
}

/// Build every graph and query of `spec` from `seed`. Packed images are
/// written under `image_dir`, mapped, and unlinked again (the mapping stays
/// valid). Queries and sampling seeds depend only on the seed, dataset and
/// size, so every workload sees the same query for the same cell.
pub fn setup(spec: &Spec, seed: u64, image_dir: &Path) -> std::io::Result<Setup> {
    let t0 = Instant::now();
    let mut load_ms = 0.0;
    let mut graphs = Vec::with_capacity(spec.datasets.len());
    let mut queries = Vec::new();
    for (gi, &name) in spec.datasets.iter().enumerate() {
        let t = Instant::now();
        let csr = dataset(name);
        let ready = match spec.storage {
            Storage::Csr => None,
            Storage::Packed { decode_cache } => {
                let graph = load_packed(&csr, name, image_dir)?.with_decode_cache(decode_cache);
                Some(AnyGraph::Compressed(graph))
            }
        };
        load_ms += t.elapsed().as_secs_f64() * 1e3;
        for &k in SIZES {
            let cell = mix(seed ^ mix(name_hash(name) ^ k as u64));
            for (index, query) in QueryGraph::workload(&csr, k, spec.per_cell, cell)
                .into_iter()
                .enumerate()
            {
                queries.push(Query {
                    dataset: name,
                    graph: gi,
                    k,
                    index,
                    query,
                    seed: mix(cell ^ index as u64),
                });
            }
        }
        graphs.push(ready.unwrap_or(AnyGraph::Csr(csr)));
    }
    Ok(Setup {
        graphs,
        queries,
        load_ms,
        total_s: t0.elapsed().as_secs_f64(),
    })
}

fn load_packed(
    csr: &gsword_core::graph::Graph,
    name: &str,
    dir: &Path,
) -> std::io::Result<CompressedGraph> {
    std::fs::create_dir_all(dir)?;
    let path: PathBuf = dir.join(format!("{name}-{}.gswdpk", std::process::id()));
    std::fs::write(&path, pack_to_vec(csr))?;
    let loaded = CompressedGraph::load(&path);
    std::fs::remove_file(&path)?;
    loaded.map_err(|e| std::io::Error::other(format!("loading packed {name}: {e}")))
}

/// Bytes of graph storage, decode caches included.
pub fn graph_bytes(graphs: &[AnyGraph]) -> usize {
    graphs.iter().map(GraphStorage::mem_bytes).sum()
}

/// Bytes resident in the decode caches of the packed graphs.
pub fn decode_cache_bytes(graphs: &[AnyGraph]) -> usize {
    graphs
        .iter()
        .map(|g| match g {
            AnyGraph::Compressed(c) => c.decode_cache_bytes(),
            AnyGraph::Csr(_) => 0,
        })
        .sum()
}
