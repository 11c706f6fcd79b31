//! File-level repo-invariant rules, migrated from the old textual lint.
//!
//! These run on the whole token stream of each file — including test
//! modules, matching the old lint's behavior — and use the lexer's
//! comment/string stripping instead of per-line `split("//")`, so a
//! `SeqCst` in a string literal or a comment can no longer confuse them.
//! Finding messages are kept byte-identical to the textual rules they
//! replace so CI diffs stay readable.

use crate::analysis::RawFinding;
use crate::lex::Tok;

/// Run every file-level rule.
pub fn check_file(toks: &[Tok]) -> Vec<RawFinding> {
    check_no_seqcst(toks)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn findings(src: &str) -> Vec<String> {
        check_file(&lex(src))
            .into_iter()
            .map(|f| format!("{}:{:?}", f.rule, f.line))
            .collect()
    }

    #[test]
    fn seqcst_flagged_with_line_but_not_in_comments_or_strings() {
        let src =
            "// SeqCst would be wrong\nlet y = b.load(Ordering::SeqCst);\nlet s = \"SeqCst\";\n";
        let f = findings(src);
        assert_eq!(f, vec!["no-seqcst:Some(2)"]);
    }
}
