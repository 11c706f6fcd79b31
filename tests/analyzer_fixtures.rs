//! Fixture-smoke test: every known-bad kernel snippet under
//! `crates/analyzer/fixtures/`
//! yields *exactly one* diagnostic, with the expected rule at the
//! expected line. One fixture per bug class keeps each rule's firing
//! condition pinned down independently.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// label -> (rule, marker substring locating the expected line, or None
/// for file-scoped rules that report without a line).
fn expectations() -> BTreeMap<&'static str, (&'static str, Option<&'static str>)> {
    BTreeMap::from([
        (
            "per_lane_ballot.rs",
            ("divergent-sync", Some("ballot(ctr, san, FULL_MASK")),
        ),
        (
            "shrink_then_reuse.rs",
            ("divergent-sync", Some("reduce_sum(ctr")),
        ),
        (
            "full_after_partial.rs",
            ("divergent-sync", Some("ballot(ctr, san, u32::MAX")),
        ),
        ("uncharged_any.rs", ("primitive-charges-counters", None)),
        ("seqcst_ordering.rs", ("no-seqcst", Some("SeqCst)"))),
        ("nondet_order.rs", ("nondet-order", Some("out.push"))),
        ("float_reduce.rs", ("float-reduce-order", Some("sum += w"))),
        ("scope_block.rs", ("scope-blocking", Some("rs.submit"))),
        (
            "helper_divergence.rs",
            ("divergent-sync", Some("acc |= full_ballot")),
        ),
        (
            "unsafe_escape.rs",
            ("unsafe-escape", Some("unsafe { std::slice::from_raw_parts")),
        ),
    ])
}

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/analyzer/fixtures")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("fixtures dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_fixture_yields_exactly_its_expected_diagnostic() {
    let root = fixtures_root();
    let mut files = Vec::new();
    collect_rs(&root, &mut files);
    files.sort();
    assert!(!files.is_empty(), "no fixtures at {}", root.display());

    let expected = expectations();
    let mut seen = Vec::new();
    for path in files {
        let label = path
            .strip_prefix(&root)
            .unwrap()
            .display()
            .to_string()
            .replace('\\', "/");
        let (rule, marker) = *expected
            .get(label.as_str())
            .unwrap_or_else(|| panic!("fixture {label} has no expectation entry"));
        seen.push(label.clone());

        let src = std::fs::read_to_string(&path).unwrap();
        let findings = gsword_analyzer::analyze_source(&label, &src);
        assert_eq!(
            findings.len(),
            1,
            "fixture {label}: expected exactly one diagnostic, got:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        let f = &findings[0];
        assert_eq!(f.rule, rule, "fixture {label}: wrong rule: {f}");
        match marker {
            Some(m) => {
                let want = src
                    .lines()
                    .position(|l| l.contains(m))
                    .unwrap_or_else(|| panic!("fixture {label}: marker {m:?} not found"))
                    as u32
                    + 1;
                assert_eq!(f.line, Some(want), "fixture {label}: wrong line: {f}");
                assert!(f.col.is_some(), "fixture {label}: missing column: {f}");
            }
            None => assert_eq!(f.line, None, "fixture {label}: expected file-scoped: {f}"),
        }
    }
    // Every expectation entry must correspond to a real fixture file.
    for label in expected.keys() {
        assert!(
            seen.iter().any(|s| s == label),
            "expectation {label} has no fixture file"
        );
    }
}

#[test]
fn fixture_findings_are_machine_readable() {
    // `file:line:col: rule: message` — one line per finding, parseable by
    // splitting on ": " after an optional line:col position.
    let root = fixtures_root();
    let src = std::fs::read_to_string(root.join("seqcst_ordering.rs")).unwrap();
    let findings = gsword_analyzer::analyze_source("seqcst_ordering.rs", &src);
    assert_eq!(findings.len(), 1);
    let line = findings[0].to_string();
    let (loc, rest) = line.split_once(": ").unwrap();
    let mut parts = loc.split(':');
    assert_eq!(parts.next(), Some("seqcst_ordering.rs"));
    let lineno = parts.next().unwrap();
    let colno = parts.next().unwrap();
    assert_eq!(parts.next(), None, "{line}");
    assert!(lineno.parse::<u32>().is_ok(), "{line}");
    assert!(colno.parse::<u32>().is_ok(), "{line}");
    assert!(rest.starts_with("no-seqcst: "), "{line}");
}
