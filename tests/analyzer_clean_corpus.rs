//! Golden clean-corpus test: the analyzer over every in-tree kernel —
//! every `.rs` file under `crates/` — must produce zero findings, and it
//! must actually be *seeing* the kernel bodies it claims to verify (the
//! RSV kernel's code paths under every optimization flag, the NextDoor
//! baseline's flag shape included, live in `engine/src/kernel.rs`).

use std::path::PathBuf;

fn crates_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates")
}

#[test]
fn workspace_kernels_are_clean() {
    let findings = gsword_analyzer::analyze_tree(&crates_root());
    assert!(
        findings.is_empty(),
        "analyzer findings on the real workspace:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn analyzer_covers_every_engine_kernel() {
    let path = crates_root().join("engine/src/kernel.rs");
    let src = std::fs::read_to_string(&path).expect("engine kernel source");
    let names = gsword_analyzer::kernel_fn_names("engine/src/kernel.rs", &src);
    // The warp-level execution paths of the three kernels, across every
    // optimization-flag combination (sample/iteration sync, streaming,
    // inheritance, mixed-depth, direct sampling).
    for required in [
        "run_block",
        "run_sample_sync",
        "run_iteration_sync",
        "rsv_iteration",
        "mixed_depth_iteration",
        "direct_sample",
        "serial_refine_sample",
        "streaming_refine_sample",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "kernel fn {required} not covered by the analyzer; saw {names:?}"
        );
    }
}

#[test]
fn analyzer_sweeps_graph_and_prof_crates() {
    // The storage and profiling crates hold the unsafe-escape corpus (the
    // mmap image, the compressed word views) and must be part of the tree
    // walk — both as parsed files and as individually clean sub-trees.
    let corpus = gsword_analyzer::corpus_files(&crates_root());
    for required in [
        "graph/src/mmap.rs",
        "graph/src/compressed.rs",
        "prof/src/lib.rs",
    ] {
        assert!(
            corpus.iter().any(|(f, _)| f == required),
            "{required} missing from the analyzer corpus"
        );
    }
    for sub in ["graph", "prof"] {
        let findings = gsword_analyzer::analyze_tree(&crates_root().join(sub));
        assert!(
            findings.is_empty(),
            "analyzer findings on crates/{sub}:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn every_workspace_unsafe_site_has_a_safety_comment() {
    // Satellite of the unsafe-escape rule: the clean-corpus guarantee is
    // achieved by documenting every unsafe site, not by suppressing the
    // rule — so no analyzed file may carry a gsword allow for it.
    // Assemble the needles at runtime so this test file (itself part of
    // the corpus) doesn't contain them literally.
    let needles = [
        format!("allow({})", "unsafe-escape"),
        format!("allow-file({})", "unsafe-escape"),
    ];
    for (file, src) in gsword_analyzer::corpus_files(&crates_root()) {
        assert!(
            needles.iter().all(|n| !src.contains(n.as_str())),
            "{file} suppresses unsafe-escape instead of documenting the site"
        );
    }
}

#[test]
fn analyzer_covers_warp_primitives() {
    let path = crates_root().join("simt/src/warp.rs");
    let src = std::fs::read_to_string(&path).expect("warp primitive source");
    let names = gsword_analyzer::kernel_fn_names("simt/src/warp.rs", &src);
    for required in [
        "any",
        "ballot",
        "shfl",
        "reduce_sum",
        "reduce_count",
        "reduce_max_by_key",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "warp primitive {required} not covered by the analyzer; saw {names:?}"
        );
    }
}
