//! Path-aware repo-invariant rules, migrated from the old textual lint.
//!
//! These run on the whole token stream of each file — including test
//! modules, matching the old lint's behavior — and use the lexer's
//! comment/string stripping instead of per-line `split("//")`, so a
//! `SeqCst` in a string literal or a board read in a doc comment can no
//! longer confuse them. Finding messages are kept byte-identical to the
//! textual rules they replace so CI diffs stay readable.

use crate::analysis::RawFinding;
use crate::cfg::extract_calls_spanned;
use crate::lex::Tok;

/// Run every file-level rule. `file` is the path label used both for
/// reporting and for the allow-lists (component checks on `/`-separated
/// paths).
pub fn check_file(file: &str, toks: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    out.extend(check_no_seqcst(toks));
    out.extend(check_prof_confined(file, toks));
    out
}

/// Does the normalized path have `name` as a component?
fn has_component(file: &str, name: &str) -> bool {
    file.replace('\\', "/").split('/').any(|c| c == name)
}

fn ends_with_path(file: &str, suffix: &str) -> bool {
    file.replace('\\', "/").ends_with(suffix)
}

/// No `SeqCst` atomic orderings: the device model is Relaxed counters plus
/// Acquire/Release hand-off by design. One finding per source line.
fn check_no_seqcst(toks: &[Tok]) -> Vec<RawFinding> {
    let mut out: Vec<RawFinding> = Vec::new();
    for t in toks {
        if t.is_ident("SeqCst") {
            if out.last().is_some_and(|f| f.line == Some(t.line)) {
                continue;
            }
            out.push(RawFinding {
                line: Some(t.line),
                col: Some(t.col),
                rule: "no-seqcst",
                message: "SeqCst ordering is banned (use Relaxed or \
                          Acquire/Release and document why)"
                    .to_string(),
            });
        }
    }
    out
}

/// Counter-board reads are confined to `crates/simt`, `crates/prof`, and
/// the engine's runtime module; everything else consumes the attributed
/// reports.
fn check_prof_confined(file: &str, toks: &[Tok]) -> Vec<RawFinding> {
    const BOARD_READS: &[&str] = &["stream_counters", "device_counters", "take_device_counters"];
    if has_component(file, "simt")
        || has_component(file, "prof")
        || ends_with_path(file, "engine/src/runtime.rs")
    {
        return Vec::new();
    }
    extract_calls_spanned(toks)
        .iter()
        .filter(|(c, _)| c.is_method && BOARD_READS.contains(&c.name.as_str()))
        .map(|(c, _)| RawFinding {
            line: Some(c.line),
            col: Some(c.col),
            rule: "prof-confined",
            message: "direct counter-board read outside crates/simt, \
                      crates/prof, and the engine runtime module (consume \
                      ProfReport / EngineReport instead)"
                .to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn findings(file: &str, src: &str) -> Vec<String> {
        check_file(file, &lex(src))
            .into_iter()
            .map(|f| format!("{}:{:?}", f.rule, f.line))
            .collect()
    }

    #[test]
    fn seqcst_flagged_with_line_but_not_in_comments_or_strings() {
        let src =
            "// SeqCst would be wrong\nlet y = b.load(Ordering::SeqCst);\nlet s = \"SeqCst\";\n";
        let f = findings("f.rs", src);
        assert_eq!(f, vec!["no-seqcst:Some(2)"]);
    }

    #[test]
    fn board_read_in_comment_not_flagged() {
        assert!(findings(
            "crates/core/src/builder.rs",
            "// read rt.stream_counters(0, 0) through the report instead\n"
        )
        .is_empty());
    }

    #[test]
    fn board_reads_confined_to_simt_prof_and_engine_runtime() {
        let src = "let c = rt.stream_counters(0, 0);\nlet v = rt.take_device_counters();";
        assert!(findings("crates/prof/src/lib.rs", src).is_empty());
        assert!(findings("crates/simt/src/runtime.rs", src).is_empty());
        assert!(findings("crates/engine/src/runtime.rs", src).is_empty());
        let f = findings("crates/core/src/builder.rs", src);
        assert_eq!(f, vec!["prof-confined:Some(1)", "prof-confined:Some(2)"]);
    }
}
