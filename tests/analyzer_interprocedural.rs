//! Acceptance tests for the interprocedural layer: the paired fixture is
//! *invisible* to the summary-free analyzer and *caught* by the
//! summary-driven one — the before/after demonstration that call-graph
//! propagation adds real coverage, not just noise. Plus a robustness
//! sweep: the lossy front-end must lex, parse, and analyze every real
//! `.rs` file in the repository without panicking.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/analyzer/fixtures")
        .join(name);
    (
        name.to_string(),
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
    )
}

#[test]
fn helper_divergence_needs_summaries() {
    let (name, src) = fixture("helper_divergence.rs");
    let before = gsword_analyzer::analyze_source_intraprocedural(&name, &src);
    assert!(
        before.is_empty(),
        "intraprocedural analyzer should miss the hidden full-mask ballot:\n{before:?}"
    );
    let after = gsword_analyzer::analyze_source(&name, &src);
    assert_eq!(after.len(), 1, "{after:?}");
    assert_eq!(after[0].rule, "divergent-sync");
    assert!(
        after[0].message.contains("via `full_ballot`"),
        "finding should name the helper: {}",
        after[0]
    );
}

#[test]
fn summaries_cross_file_boundaries() {
    // Same shape as helper_divergence.rs but with helper and caller in
    // different files: only corpus-level analysis links them.
    let helper = "fn full_ballot(ctr: &mut KernelCounters, san: &WarpSanitizer, pred: &Lanes<bool>) -> u32 {\n\
                  ballot(ctr, san, FULL_MASK, pred)\n\
                  }\n";
    let caller = "pub fn count_divergent(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) -> u32 {\n\
                  let mut acc = 0u32;\n\
                  for lane in lanes_of(mask) {\n\
                      acc |= full_ballot(ctr, san, pred);\n\
                  }\n\
                  acc\n\
                  }\n";
    let corpus = vec![
        ("helpers.rs".to_string(), helper.to_string()),
        ("kernel.rs".to_string(), caller.to_string()),
    ];
    let findings = gsword_analyzer::analyze_corpus(&corpus);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "divergent-sync");
    assert_eq!(findings[0].file, "kernel.rs");
    assert_eq!(findings[0].line, Some(4));
    // One file alone shows nothing.
    assert!(gsword_analyzer::analyze_source("kernel.rs", caller).is_empty());
}

/// Every `.rs` file in the repository — product code, tests, fixtures
/// (which exist to violate rules), vendored stubs — must survive the full
/// lex → parse → CFG → analyze pipeline without panicking. The front-end
/// is deliberately lossy; this pins down that "lossy" degrades to opaque
/// statements, never to a crash.
#[test]
fn front_end_survives_every_rs_file_in_repo() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    collect_rs(&root, &mut files);
    files.sort();
    assert!(
        files.len() > 30,
        "suspiciously few .rs files under {}: {}",
        root.display(),
        files.len()
    );
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        let label = path.display().to_string();
        // A panic anywhere in the pipeline fails the test with the file
        // name attached.
        let result =
            std::panic::catch_unwind(|| gsword_analyzer::analyze_source(&label, &src).len());
        assert!(result.is_ok(), "analyzer panicked on {label}");
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n == "target" || n == ".git")
            {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
