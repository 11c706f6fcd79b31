//! Cross-workload contracts of the benchmark, at a small budget: storage
//! and worker count must not change results, and each workload's dominant
//! layer must stay the one it exists to measure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build passes too, only slower).

use std::collections::BTreeMap;
use std::path::PathBuf;

use gsword_perfbench::measure::{run_query, run_query_traced, LayerMs, Outcome, Trace};
use gsword_perfbench::workload::{setup, spec, Setup, Spec, DEFAULT_SEED};

fn image_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-images")
}

/// `name` with one query per cell and a small sample budget.
fn small(name: &str) -> Spec {
    Spec {
        per_cell: 1,
        samples: 500,
        ..spec(name).expect("known workload")
    }
}

fn load(spec: &Spec) -> Setup {
    setup(spec, DEFAULT_SEED, &image_dir()).expect("set-up succeeds")
}

/// Builder outcomes of every query, keyed by dataset, size and index.
fn outcomes(spec: &Spec) -> BTreeMap<String, Outcome> {
    let s = load(spec);
    s.queries
        .iter()
        .map(|q| {
            let o = run_query(spec, &s.graphs[q.graph], q).expect("query runs");
            assert!(o.is_sane(), "{}: {o:?}", q.key());
            (q.key(), o)
        })
        .collect()
}

#[test]
fn packed_workloads_match_csr() {
    let csr = outcomes(&small("rsv-serial"));
    for name in ["packed-fit", "packed-spill"] {
        let packed = outcomes(&small(name));
        assert!(!packed.is_empty());
        for (key, o) in &packed {
            assert_eq!(
                Some(o),
                csr.get(key),
                "{name} {key}: estimate or counters differ from CSR"
            );
        }
    }
}

#[test]
fn two_sim_workers_match_serial() {
    let serial = outcomes(&small("rsv-serial"));
    let par2 = outcomes(&small("rsv-par2"));
    assert_eq!(serial, par2);
}

/// Layer times of one traced pass over `spec` (one query per cell, the
/// workload's own budget), after a warm-up pass; traced outcomes must equal
/// the builder's.
fn traced_layers(name: &str) -> LayerMs {
    let spec = Spec {
        per_cell: 1,
        ..spec(name).expect("known workload")
    };
    let s = load(&spec);
    let mut trace = Trace::default();
    let mut sum = LayerMs::default();
    for (id, q) in s.queries.iter().enumerate() {
        let data = &s.graphs[q.graph];
        let reference = run_query(&spec, data, q).expect("query runs");
        let (got, ms, _) = run_query_traced(&spec, data, q, id, 0, &mut trace);
        assert!(
            got.repeats(&reference),
            "{name} {}: traced path differs from the builder",
            q.key()
        );
        sum.add(&ms, 1.0);
    }
    assert_eq!(trace.spans.len(), 5 * s.queries.len());
    sum
}

#[test]
fn engine_dominates_rsv_workloads() {
    for name in ["rsv-serial", "rsv-par2"] {
        let l = traced_layers(name);
        assert!(
            l.engine > 0.5 * l.total && l.engine > l.build,
            "{name}: engine {:.1} ms, build {:.1} ms of {:.1} ms",
            l.engine,
            l.build,
            l.total
        );
    }
}

#[test]
fn candidate_build_dominates_packed_spill() {
    let l = traced_layers("packed-spill");
    assert!(
        l.build > 0.5 * l.total && l.build > l.engine,
        "packed-spill: build {:.1} ms, engine {:.1} ms of {:.1} ms",
        l.build,
        l.engine,
        l.total
    );
}
