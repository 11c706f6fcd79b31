//! gsword-analyzer: static lockstep-safety and determinism analysis for
//! the gSWORD workspace.
//!
//! The workspace's SIMT kernels rely on warp-synchronous discipline that
//! the type system cannot express: primitive participation masks must
//! match the lanes actually converged, and every primitive must charge
//! the device cost model. The dynamic sanitizer (gsword-sanitizer) checks the paths a run
//! happens to execute; this crate checks *all* paths, statically.
//!
//! Pipeline: a lossy but comment/string-exact lexer ([`lex`]) feeds a
//! partial parser ([`parse`]) that extracts function bodies, which lower
//! to statement-level control-flow graphs ([`cfg`]) analyzed by a
//! uniformity dataflow plus a flow-sensitive declared-mask lattice
//! ([`analysis`]). A fixpoint of per-function summaries over the whole
//! parsed corpus ([`callgraph`]) lets those analyses see through helper
//! functions. Determinism rules (hash-iteration order, float reduction
//! order) live in [`order`], the stream-thread deadlock rule in
//! [`blocking`], the `unsafe` audit in [`escape`], and the file-level
//! `SeqCst` ban migrated from the old textual lint in [`confined`].
//!
//! The front-end is purpose-built on `std` alone rather than `syn`: the
//! workspace builds hermetically from vendored stubs (see
//! `vendor/README.md`) and carries no real parsing dependency, so the
//! analyzer implements the small Rust subset the kernel corpus uses. Any
//! statement it cannot classify degrades to an opaque expression whose
//! call sites are still visible to the analyses.
//!
//! Entry points: [`analyze_source`] for one file, [`analyze_tree`] for a
//! directory walk (used by `cargo xtask analyze`), and
//! [`analyze_source_intraprocedural`] for the summary-free PR-4 behavior
//! kept as a before/after baseline.
//!
//! False positives are silenced in place with `// gsword: allow(rule)`
//! (covers the comment's line and the next) or `// gsword:
//! allow-file(rule)` (whole file).

use std::fmt;
use std::path::{Path, PathBuf};

pub mod analysis;
pub mod blocking;
pub mod callgraph;
pub mod cfg;
pub mod confined;
pub mod escape;
pub mod lex;
pub mod order;
pub mod parse;

use analysis::{analyze_kernel_fn, analyze_kernel_fn_with, is_kernel_fn, RawFinding};
use callgraph::Summaries;

/// One diagnostic, formatted `file:line:col: rule: message` (position
/// omitted for file-scoped rules).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: Option<u32>,
    pub col: Option<u32>,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(
                f,
                "{}:{line}:{}: {}: {}",
                self.file,
                self.col.unwrap_or(1),
                self.rule,
                self.message
            ),
            None => write!(f, "{}: {}: {}", self.file, self.rule, self.message),
        }
    }
}

/// In-source suppressions: `// gsword: allow(rule, …)` silences matching
/// findings on its own line and the next; `// gsword: allow-file(rule, …)`
/// silences them in the whole file (including line-less findings).
#[derive(Debug, Default)]
struct Suppressions {
    file_rules: Vec<String>,
    line_rules: Vec<(u32, String)>,
}

impl Suppressions {
    fn parse(src: &str) -> Suppressions {
        let mut s = Suppressions::default();
        for (i, text) in src.lines().enumerate() {
            let line = i as u32 + 1;
            let Some(pos) = text.find("// gsword: allow") else {
                continue;
            };
            let rest = &text[pos + "// gsword: allow".len()..];
            let (file_wide, rest) = match rest.strip_prefix("-file(") {
                Some(r) => (true, r),
                None => match rest.strip_prefix('(') {
                    Some(r) => (false, r),
                    None => continue,
                },
            };
            let Some(close) = rest.find(')') else {
                continue;
            };
            for rule in rest[..close].split(',') {
                let rule = rule.trim().to_string();
                if rule.is_empty() {
                    continue;
                }
                if file_wide {
                    s.file_rules.push(rule);
                } else {
                    s.line_rules.push((line, rule));
                }
            }
        }
        s
    }

    fn allows(&self, f: &Finding) -> bool {
        if self.file_rules.iter().any(|r| r == f.rule) {
            return true;
        }
        match f.line {
            Some(l) => self
                .line_rules
                .iter()
                .any(|(sl, r)| r == f.rule && (l == *sl || l == sl + 1)),
            None => false,
        }
    }
}

fn attach(file: &str, raw: Vec<RawFinding>) -> Vec<Finding> {
    raw.into_iter()
        .map(|r| Finding {
            file: file.to_string(),
            line: r.line,
            col: r.col,
            rule: r.rule,
            message: r.message,
        })
        .collect()
}

/// Analyze a set of files as one corpus: summaries are built over every
/// parsed function, so rules see through helper calls across files.
/// `files` is `(path label, source text)`. Output is deterministic:
/// sorted by (file, line, col, rule, message), deduplicated, suppressions
/// applied.
pub fn analyze_corpus(files: &[(String, String)]) -> Vec<Finding> {
    let parsed: Vec<(usize, Vec<lex::Tok>)> = files
        .iter()
        .enumerate()
        .map(|(i, (_, src))| (i, lex::lex(src)))
        .collect();
    let mut all_fns = Vec::new();
    let mut per_file_fns = Vec::new();
    for (_, toks) in &parsed {
        let fns = parse::parse_file(toks);
        all_fns.extend(fns.iter().cloned());
        per_file_fns.push(fns);
    }
    let sums = Summaries::build(&all_fns);

    let mut out = Vec::new();
    for ((i, toks), fns) in parsed.iter().zip(&per_file_fns) {
        let (file, src) = &files[*i];
        let mut raw = confined::check_file(toks);
        raw.extend(escape::check_file(src, toks, fns));
        for f in fns {
            if is_kernel_fn(file, f) {
                raw.extend(analyze_kernel_fn_with(f, &sums));
            }
            raw.extend(order::check_fn(f, &sums));
            raw.extend(blocking::check_fn(f, &sums));
        }
        let sup = Suppressions::parse(src);
        out.extend(attach(file, raw).into_iter().filter(|f| !sup.allows(f)));
    }
    sort_findings(&mut out);
    out.dedup();
    out
}

fn sort_findings(out: &mut [Finding]) {
    out.sort_by(|a, b| {
        (
            a.file.as_str(),
            a.line.unwrap_or(0),
            a.col.unwrap_or(0),
            a.rule,
            a.message.as_str(),
        )
            .cmp(&(
                b.file.as_str(),
                b.line.unwrap_or(0),
                b.col.unwrap_or(0),
                b.rule,
                b.message.as_str(),
            ))
    });
}

/// Analyze one source file (a one-file corpus). `file` is the path label
/// used for reporting and for the path-based allow-lists.
pub fn analyze_source(file: &str, src: &str) -> Vec<Finding> {
    analyze_corpus(&[(file.to_string(), src.to_string())])
}

/// The summary-free analyzer: every call is opaque, no order/blocking
/// rules, no suppressions. This is exactly the PR-4 behavior, kept so the
/// interprocedural tests can assert before/after deltas.
pub fn analyze_source_intraprocedural(file: &str, src: &str) -> Vec<Finding> {
    let toks = lex::lex(src);
    let mut raw = confined::check_file(&toks);
    for f in parse::parse_file(&toks) {
        if is_kernel_fn(file, &f) {
            raw.extend(analyze_kernel_fn(&f));
        }
    }
    let mut out = attach(file, raw);
    sort_findings(&mut out);
    out
}

/// Names of the functions in `src` that the kernel-body rules cover.
/// Used by the clean-corpus test to assert the analyzer actually sees the
/// kernels it claims to verify.
pub fn kernel_fn_names(file: &str, src: &str) -> Vec<String> {
    parse::parse_file(&lex::lex(src))
        .into_iter()
        .filter(|f| is_kernel_fn(file, f))
        .map(|f| f.name)
        .collect()
}

/// Walk `root` and analyze every `.rs` file as one corpus. Skips `xtask`
/// (the task runner, not simulator code), `fixtures` trees (they violate
/// the rules on purpose), and `target`.
pub fn analyze_tree(root: &Path) -> Vec<Finding> {
    analyze_corpus(&corpus_files(root))
}

/// Collect the analyzable corpus under `root` as `(path label, source)`,
/// with the same skip list `analyze_tree` applies.
pub fn corpus_files(root: &Path) -> Vec<(String, String)> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths);
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        if rel.components().any(|c| {
            ["xtask", "fixtures", "target"].contains(&c.as_os_str().to_str().unwrap_or(""))
        }) {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        files.push((rel.display().to_string(), src));
    }
    files
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_display_has_line_and_column() {
        let with_line = Finding {
            file: "core/src/builder.rs".into(),
            line: Some(7),
            col: Some(13),
            rule: "no-seqcst",
            message: "SeqCst ordering is banned".into(),
        };
        assert_eq!(
            with_line.to_string(),
            "core/src/builder.rs:7:13: no-seqcst: SeqCst ordering is banned"
        );
        let no_line = Finding {
            file: "warp.rs".into(),
            line: None,
            col: None,
            rule: "primitive-charges-counters",
            message: "pub fn bad takes &mut KernelCounters".into(),
        };
        assert_eq!(
            no_line.to_string(),
            "warp.rs: primitive-charges-counters: pub fn bad takes &mut KernelCounters"
        );
        // The full messages of a line-scoped and a file-scoped rule are
        // pinned too, so tooling that greps analyzer output stays stable.
        let f = analyze_source(
            "warp.rs",
            "pub fn bad(ctr: &mut KernelCounters, mask: u32) -> u32 { mask }\n",
        );
        assert_eq!(
            f[0].to_string(),
            "warp.rs: primitive-charges-counters: pub fn bad takes &mut \
             KernelCounters but never charges them \
             (warp_instruction/warp_load/diverge)"
        );
        let g = analyze_source(
            "core/src/builder.rs",
            "fn f() { let n = c.load(Ordering::SeqCst); }\n",
        );
        assert_eq!(
            g[0].to_string(),
            "core/src/builder.rs:1:35: no-seqcst: SeqCst ordering is banned \
             (use Relaxed or Acquire/Release and document why)"
        );
    }

    #[test]
    fn kernel_fn_detection_by_file_and_signature() {
        let src = "pub fn plain(x: usize) -> usize { x }\n\
                   pub fn kern(mask: WarpMask) -> u32 { mask }\n";
        assert_eq!(kernel_fn_names("some/module.rs", src), vec!["kern"]);
        // Everything in a kernel.rs is kernel code.
        assert_eq!(
            kernel_fn_names("engine/src/kernel.rs", src),
            vec!["plain", "kern"]
        );
    }

    #[test]
    fn test_code_is_exempt_from_kernel_rules() {
        let src = "#[cfg(test)]\nmod tests {\n  fn helper(mask: WarpMask) -> u32 { mask }\n}\n";
        assert!(kernel_fn_names("some/module.rs", src).is_empty());
    }

    #[test]
    fn analyze_source_combines_file_and_kernel_rules() {
        let src = "pub fn bad(ctr: &mut KernelCounters) -> u64 {\n\
                   let x = a.load(Ordering::SeqCst);\nx\n}\n";
        let f = analyze_source("m.rs", src);
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"no-seqcst"), "{f:?}");
        assert!(rules.contains(&"primitive-charges-counters"), "{f:?}");
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let src = "pub fn count(m: &HashMap<u32, u32>) -> u32 {\n\
                   for k in m.keys() {\n\
                       // gsword: allow(nondet-order)\n\
                       return *k;\n\
                   }\n\
                   0\n\
                   }\n";
        assert!(analyze_source("m.rs", src).is_empty());
        let unsuppressed = src.replace("// gsword: allow(nondet-order)\n", "");
        assert_eq!(analyze_source("m.rs", &unsuppressed).len(), 1);
    }

    #[test]
    fn allow_file_suppresses_lineless_findings() {
        let src = "// gsword: allow-file(primitive-charges-counters)\n\
                   pub fn bad(ctr: &mut KernelCounters) -> u32 { 0 }\n";
        assert!(analyze_source("m.rs", src).is_empty());
    }

    #[test]
    fn wrong_rule_in_allow_comment_does_not_suppress() {
        let src = "pub fn count(m: &HashMap<u32, u32>) -> u32 {\n\
                   for k in m.keys() {\n\
                       // gsword: allow(divergent-sync)\n\
                       return *k;\n\
                   }\n\
                   0\n\
                   }\n";
        assert_eq!(analyze_source("m.rs", src).len(), 1);
    }

    #[test]
    fn corpus_analysis_sees_across_files() {
        // The helper lives in one file, the caller in another: only the
        // corpus-level entry point links them.
        let helper = "pub fn full_ballot(ctr: &mut KernelCounters, san: &WarpSanitizer, pred: &Lanes<bool>) -> u32 {\n\
                      ballot(ctr, san, FULL_MASK, pred)\n\
                      }\n";
        let caller = "pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) -> u32 {\n\
                      let mut acc = 0u32;\n\
                      for lane in lanes_of(mask) {\n\
                          acc |= full_ballot(ctr, san, pred);\n\
                      }\n\
                      acc\n\
                      }\n";
        let files = vec![
            ("a/helper.rs".to_string(), helper.to_string()),
            ("b/kernel.rs".to_string(), caller.to_string()),
        ];
        let f = analyze_corpus(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "divergent-sync");
        assert_eq!(f[0].file, "b/kernel.rs");
        assert_eq!(f[0].line, Some(4));
        // The intraprocedural analyzer cannot see it.
        assert!(analyze_source_intraprocedural("b/kernel.rs", caller).is_empty());
    }

    #[test]
    fn same_site_findings_sort_by_rule_then_message() {
        // An early return of an undocumented `unsafe` block inside hash
        // iteration emits TWO findings at the `unsafe` token. The unsafe
        // audit runs before the order rules, so emission order is
        // unsafe-escape first; only the rule tiebreaker produces the
        // canonical order: nondet-order < unsafe-escape.
        let src = "pub fn first(m: &HashMap<u32, u32>) -> u32 {\n\
                   for k in m.keys() {\n\
                       return unsafe { *k };\n\
                   }\n\
                   0\n\
                   }\n";
        let f = analyze_source("m.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!((f[0].line, f[0].col), (f[1].line, f[1].col), "{f:?}");
        assert_eq!(f[0].rule, "nondet-order", "{f:?}");
        assert_eq!(f[1].rule, "unsafe-escape", "{f:?}");
    }

    #[test]
    fn output_is_sorted_and_deduplicated() {
        let src = "pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>, m: &HashMap<u32, u32>) -> u32 {\n\
                   san.set_active(mask);\n\
                   let a = ballot(ctr, san, u32::MAX, pred);\n\
                   let x = c.load(Ordering::SeqCst);\n\
                   for k in m.keys() {\n\
                       return *k;\n\
                   }\n\
                   a + x\n\
                   }\n";
        let f = analyze_source("m.rs", src);
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert_eq!(
            rules,
            ["divergent-sync", "no-seqcst", "nondet-order"],
            "{f:?}"
        );
        let mut sorted = f.clone();
        sort_findings(&mut sorted);
        assert_eq!(f, sorted);
        let mut deduped = f.clone();
        deduped.dedup();
        assert_eq!(f, deduped);
    }
}
