//! Experiment harness shared by the per-figure/table binaries.
//!
//! Every evaluation artifact of the paper maps to one binary in `src/bin`
//! (see DESIGN.md §3). The binaries share workload construction, scaled
//! default parameters, ground-truth computation with an on-disk cache, and
//! table formatting through this library.
//!
//! Scaling knobs (environment variables):
//!
//! * `GSWORD_SAMPLES` — sample budget per query (default 20 000; the paper
//!   uses 10⁶ — results are normalized to a 10⁶-sample budget where the
//!   paper reports absolute times).
//! * `GSWORD_QUERIES` — queries per (dataset, size) cell (default 5; the
//!   paper uses 20).
//! * `GSWORD_DATASETS` — comma-separated subset of the suite.
//! * `GSWORD_TRUTH_BUDGET` — search-node budget for ground-truth
//!   enumeration (default 2×10⁸; cells whose budget trips report no
//!   q-error).
//! * `GSWORD_FAST` — set to shrink everything for a smoke run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use gsword_core::prelude::*;

/// The paper's reference sample budget; absolute runtimes are normalized
/// to this (Section 6.1 uses 10⁶ samples per query).
pub const PAPER_SAMPLES: u64 = 1_000_000;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether `GSWORD_FAST` smoke mode is active.
pub fn fast_mode() -> bool {
    std::env::var("GSWORD_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Sample budget per query for experiments.
pub fn samples() -> u64 {
    let default = if fast_mode() { 2_000 } else { 20_000 };
    env_u64("GSWORD_SAMPLES", default)
}

/// Queries per (dataset, size) cell.
pub fn queries_per_cell() -> usize {
    let default = if fast_mode() { 2 } else { 5 };
    env_u64("GSWORD_QUERIES", default as u64) as usize
}

/// Ground-truth enumeration budget (search nodes).
pub fn truth_budget() -> u64 {
    let default = if fast_mode() { 20_000_000 } else { 200_000_000 };
    env_u64("GSWORD_TRUTH_BUDGET", default)
}

/// The datasets this run covers.
pub fn dataset_names() -> Vec<&'static str> {
    match std::env::var("GSWORD_DATASETS") {
        Ok(list) if !list.is_empty() => gsword_core::datasets::dataset_names()
            .into_iter()
            .filter(|n| list.split(',').any(|x| x.trim() == *n))
            .collect(),
        _ => gsword_core::datasets::dataset_names(),
    }
}

/// CPU threads used by the CPU baselines (the paper's server has 12
/// cores).
pub fn cpu_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(12)
}

/// A dataset with its per-size query workloads (the paper's extraction
/// method; Section 6.1).
pub struct Workload {
    /// Suite dataset name.
    pub name: &'static str,
    /// The data graph.
    pub data: Graph,
}

impl Workload {
    /// Load a suite dataset.
    pub fn load(name: &'static str) -> Self {
        Workload {
            name,
            data: gsword_core::datasets::dataset(name),
        }
    }

    /// Extract the standard query workload of `k` vertices.
    pub fn queries(&self, k: usize) -> Vec<QueryGraph> {
        QueryGraph::workload(&self.data, k, queries_per_cell(), 0xC0DE + k as u64)
    }

    /// Ground truth for one query, via the cache.
    pub fn truth(&self, query: &QueryGraph, tag: &str) -> Option<f64> {
        cached_truth(self.name, tag, &self.data, query)
    }
}

/// 64-bit FNV-1a over a stream of words: the truth cache's stable
/// content hash.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf29ce484222325u64, |h, x| {
        (h ^ x).wrapping_mul(0x100000001b3)
    })
}

/// Stable content hash of a query (for the truth cache key).
fn query_hash(q: &QueryGraph) -> u64 {
    let n = q.num_vertices() as u8;
    fnv(std::iter::once(u64::from(n))
        .chain((0..n).flat_map(|u| [u64::from(q.label(u)), u64::from(q.adjacency_mask(u))])))
}

/// Stable content digest of a data graph (for the truth cache key): a
/// generator change that moves one label or edge gives a new key.
fn graph_digest(g: &Graph) -> u64 {
    let n = g.num_vertices() as VertexId;
    fnv(std::iter::once(u64::from(n))
        .chain(g.labels().iter().map(|&l| u64::from(l)))
        .chain((0..n).flat_map(|v| {
            std::iter::once(g.degree(v) as u64).chain(g.neighbors(v).iter().map(|&w| u64::from(w)))
        })))
}

fn cache_dir() -> PathBuf {
    let dir = std::env::var("GSWORD_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/gsword-truth"));
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Exact count with an on-disk cache (`target/gsword-truth/`). `None` when
/// the enumeration budget trips.
pub fn cached_truth(dataset: &str, tag: &str, data: &Graph, query: &QueryGraph) -> Option<f64> {
    truth_in(&cache_dir(), truth_budget(), dataset, tag, data, query)
}

/// [`cached_truth`] against the cache in `dir`, enumerating under
/// `budget`. The key names the data graph's digest and the budget as well
/// as the query, so a regenerated graph or a larger budget never reads a
/// stale entry.
fn truth_in(
    dir: &Path,
    budget: u64,
    dataset: &str,
    tag: &str,
    data: &Graph,
    query: &QueryGraph,
) -> Option<f64> {
    let key = format!(
        "{dataset}-{tag}-{:016x}-{:016x}-b{budget}",
        graph_digest(data),
        query_hash(query)
    );
    let path = dir.join(format!("{key}.json"));
    if let Ok(body) = std::fs::read_to_string(&path) {
        if let Some(v) = parse_cached(&body) {
            return v.map(|x| x as f64);
        }
    }
    let v = gsword_core::exact_count(data, query, budget, 0);
    if let Ok(mut f) = std::fs::File::create(&path) {
        let body = match v {
            Some(x) => x.to_string(),
            None => "null".to_string(),
        };
        let _ = write!(f, "{body}");
    }
    v.map(|x| x as f64)
}

/// Parse a truth-cache body: JSON `null` (budget tripped) or a bare
/// non-negative integer. Outer `None` means the file is unreadable and the
/// truth must be recomputed.
fn parse_cached(body: &str) -> Option<Option<u64>> {
    let body = body.trim();
    if body == "null" {
        return Some(None);
    }
    body.parse::<u64>().ok().map(Some)
}

/// Geometric mean (ignores non-finite and non-positive entries).
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        return f64::NAN;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Mean and population standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let m = xs.iter().sum::<f64>() / xs.len() as f64;
    let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    (m, v.sqrt())
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells already formatted).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                out.push_str(&format!("{cell:>w$}  ", w = w));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Collect per-dataset series into an ordered map (stable printing).
pub type Series = BTreeMap<String, Vec<f64>>;

/// Format an `Option<f64>` cell.
pub fn opt_cell(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(x) => format!("{x:.digits$}"),
        None => "-".to_string(),
    }
}

/// A standard header line for experiment binaries.
pub fn banner(id: &str, what: &str) {
    println!("=== {id}: {what} ===");
    println!(
        "samples/query: {} (normalized to paper budget {}), queries/cell: {}, truth budget: {}",
        samples(),
        PAPER_SAMPLES,
        queries_per_cell(),
        truth_budget()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_ignores_nonpositive() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn query_hash_distinguishes() {
        let a = QueryGraph::new(vec![0, 0], &[(0, 1)]).unwrap();
        let b = QueryGraph::new(vec![0, 1], &[(0, 1)]).unwrap();
        assert_ne!(query_hash(&a), query_hash(&b));
        assert_eq!(query_hash(&a), query_hash(&a));
    }

    #[test]
    fn truth_cache_keys_on_the_graph_and_the_budget() {
        let dir = std::env::temp_dir().join(format!("gsword-truth-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let k4_minus = |skip: Option<(VertexId, VertexId)>| {
            let mut b = gsword_core::graph::GraphBuilder::with_vertices(4);
            for u in 0..4 {
                for v in u + 1..4 {
                    if Some((u, v)) != skip {
                        b.add_edge(u, v);
                    }
                }
            }
            b.build().unwrap()
        };
        let (full, cut) = (k4_minus(None), k4_minus(Some((2, 3))));
        let triangle = QueryGraph::new(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let budget = 1 << 20;
        let exact = |g: &Graph| gsword_core::exact_count(g, &triangle, budget, 0).unwrap() as f64;

        // A budget-tripped `null` is not served to a larger budget.
        assert_eq!(truth_in(&dir, 1, "toy", "k3", &full, &triangle), None);
        assert_eq!(
            truth_in(&dir, budget, "toy", "k3", &full, &triangle),
            Some(exact(&full))
        );

        // Same dataset name, tag and query; one edge apart.
        let b = truth_in(&dir, budget, "toy", "k3", &cut, &triangle);
        assert_eq!(b, Some(exact(&cut)));
        assert_ne!(b, Some(exact(&full)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }
}
