//! `unsafe-escape`: undocumented `unsafe` and unsafe-derived values that
//! outlive their validating function.
//!
//! The storage layer hands out `&[u32]` slices reinterpreted from mmap'd
//! bytes (`crates/graph/src/mmap.rs`, `crates/graph/src/compressed.rs`).
//! They are sound only because of invariants the type system cannot
//! see — so this rule insists every
//! `unsafe` site carries a `// SAFETY:` comment stating that invariant,
//! and upgrades the finding when the unsafe-derived value *escapes*: a
//! slice/pointer produced by an [`DERIVE_CALLS`] call inside `unsafe`
//! that is returned to the caller, where the validating context is gone.
//!
//! The lexer turns string literals into `Lit` tokens, so scanning for
//! `Ident` tokens spelled `unsafe` finds exactly the keyword sites
//! (`unsafe` is not in the parser's `KEYWORDS`, so it stays an `Ident`).
//! Comments never reach the token stream — the `// SAFETY:` check reads
//! the raw source lines instead.

use std::collections::BTreeMap;

use crate::analysis::{return_exprs, RawFinding};
use crate::lex::{Tok, TokKind};
use crate::parse::{FnDef, Stmt};

/// Calls that mint a reference/pointer whose validity is the `unsafe`
/// block's responsibility.
pub const DERIVE_CALLS: &[&str] = &[
    "from_raw_parts",
    "from_raw_parts_mut",
    "transmute",
    "as_ptr",
    "as_mut_ptr",
    "get_unchecked",
];

/// Run the rule over one file: `src` is the raw text (for comments),
/// `toks` its token stream, `fns` the parsed functions.
pub fn check_file(src: &str, toks: &[Tok], fns: &[FnDef]) -> Vec<RawFinding> {
    let lines: Vec<&str> = src.lines().collect();
    let escapes = escape_lines(fns);
    let mut out = Vec::new();
    let mut seen_lines = Vec::new();
    for t in toks {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if seen_lines.contains(&t.line) {
            continue;
        }
        seen_lines.push(t.line);
        if has_safety_comment(&lines, t.line) {
            continue;
        }
        let message = match escapes.get(&t.line) {
            Some(m) => m.clone(),
            None => "`unsafe` block lacks a `// SAFETY:` comment stating the invariant that \
                     makes it sound"
                .to_string(),
        };
        out.push(RawFinding {
            line: Some(t.line),
            col: Some(t.col),
            rule: "unsafe-escape",
            message,
        });
    }
    out
}

/// Does the 1-based `line` carry a `// SAFETY:` comment — trailing on the
/// line itself, or in the contiguous run of comment/attribute lines
/// directly above it?
fn has_safety_comment(lines: &[&str], line: u32) -> bool {
    let idx = line as usize - 1;
    if lines.get(idx).is_some_and(|l| l.contains("SAFETY:")) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        if t.starts_with("//") || t.starts_with("#[") {
            if t.contains("SAFETY:") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Map from an `unsafe` keyword's line to an escape message, for every
/// unsafe-derived value that reaches a return expression of its function.
fn escape_lines(fns: &[FnDef]) -> BTreeMap<u32, String> {
    let mut out = BTreeMap::new();
    for f in fns {
        let returns = return_exprs(&f.body);
        // Direct escape: a return/tail expression that itself contains
        // `unsafe` around a derive call.
        for r in &returns {
            if let Some((line, call)) = unsafe_derive(r) {
                out.insert(line, escape_msg(&call, &f.name));
            }
        }
        // A trailing statement-level `unsafe { ... }` block is the
        // function's tail value; parse keeps it as `Stmt::Unsafe`, not an
        // expression, so `return_exprs` does not see it.
        if let Some(Stmt::Unsafe { body, line, .. }) = f.body.stmts.last() {
            for s in &body.stmts {
                if let Stmt::Expr(toks) | Stmt::Return(toks) = s {
                    if let Some(call) = derive_call(toks) {
                        out.insert(*line, escape_msg(&call, &f.name));
                    }
                }
            }
        }
        // Indirect escape: `let s = unsafe { derive(..) };` where `s`
        // later appears in a return expression.
        visit_lets(&f.body.stmts, &mut |names, init| {
            let Some((line, call)) = unsafe_derive(init) else {
                return;
            };
            let escapes = names.iter().any(|n| {
                returns
                    .iter()
                    .any(|r| r.iter().any(|t| t.kind == TokKind::Ident && t.text == *n))
            });
            if escapes {
                out.insert(line, escape_msg(&call, &f.name));
            }
        });
    }
    out
}

fn escape_msg(call: &str, fn_name: &str) -> String {
    format!(
        "unsafe-derived value (`{call}`) escapes `{fn_name}` — the caller holds a \
         reference whose validity only this function's context establishes; document \
         the invariant with `// SAFETY:` or return an owned/validated value"
    )
}

/// If `toks` contains the `unsafe` keyword and a derive call, return the
/// keyword's line and the call name.
fn unsafe_derive(toks: &[Tok]) -> Option<(u32, String)> {
    let kw = toks
        .iter()
        .find(|t| t.kind == TokKind::Ident && t.text == "unsafe")?;
    derive_call(toks).map(|c| (kw.line, c))
}

fn derive_call(toks: &[Tok]) -> Option<String> {
    toks.windows(2).find_map(|w| {
        (w[0].kind == TokKind::Ident
            && DERIVE_CALLS.contains(&w[0].text.as_str())
            && (w[1].is_punct("(") || w[1].is_punct("::")))
        .then(|| w[0].text.clone())
    })
}

/// Walk every `let` statement in a block tree (incl. nested control flow).
fn visit_lets<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a [String], &'a [Tok])) {
    for s in stmts {
        match s {
            Stmt::Let {
                names,
                init,
                else_block,
                ..
            } => {
                f(names, init);
                if let Some(eb) = else_block {
                    visit_lets(&eb.stmts, f);
                }
            }
            Stmt::If { then_b, else_b, .. } => {
                visit_lets(&then_b.stmts, f);
                if let Some(eb) = else_b {
                    visit_lets(&eb.stmts, f);
                }
            }
            Stmt::While { body, .. } | Stmt::Loop { body } | Stmt::For { body, .. } => {
                visit_lets(&body.stmts, f)
            }
            Stmt::Match { arms, .. } => {
                for (_, body) in arms {
                    visit_lets(&body.stmts, f);
                }
            }
            Stmt::Block(inner) | Stmt::Unsafe { body: inner, .. } => visit_lets(&inner.stmts, f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse_file;

    fn findings(src: &str) -> Vec<RawFinding> {
        let toks = lex(src);
        let fns = parse_file(&toks);
        check_file(src, &toks, &fns)
    }

    #[test]
    fn undocumented_unsafe_block_fires() {
        let f = findings(
            "fn f(p: *const u32) {\n\
             unsafe {\n\
             touch(p);\n\
             }\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unsafe-escape");
        assert_eq!(f[0].line, Some(2));
        assert!(f[0].message.contains("SAFETY:"));
    }

    #[test]
    fn safety_comment_above_silences() {
        let f = findings(
            "fn f(p: *const u32) {\n\
             // SAFETY: p is valid for the caller-guaranteed lifetime.\n\
             unsafe {\n\
             touch(p);\n\
             }\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn trailing_safety_comment_and_attr_interleave_are_honoured() {
        let f = findings(
            "fn f(p: *const u32) {\n\
             // SAFETY: bounds were checked by the header parser.\n\
             #[allow(clippy::cast_ptr_alignment)]\n\
             unsafe {\n\
             touch(p);\n\
             }\n\
             let x = unsafe { read(p) }; // SAFETY: same invariant.\n\
             drop(x);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn escaping_slice_via_binding_upgrades_the_message() {
        let f = findings(
            "fn view(ptr: *const u32, len: usize) -> &'static [u32] {\n\
             let s = unsafe { std::slice::from_raw_parts(ptr, len) };\n\
             s\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("escapes `view`"), "{f:?}");
        assert!(f[0].message.contains("from_raw_parts"), "{f:?}");
    }

    #[test]
    fn escaping_tail_unsafe_block_is_detected() {
        let f = findings(
            "fn view(ptr: *const u32, len: usize) -> &'static [u32] {\n\
             unsafe {\n\
             std::slice::from_raw_parts(ptr, len)\n\
             }\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("escapes `view`"), "{f:?}");
    }

    #[test]
    fn lifetime_transmute_without_comment_is_an_escape_candidate() {
        // Mirrors the worker-pool pattern: the transmuted job is consumed
        // locally (sent to a channel), so it is the comment that matters.
        let f = findings(
            "fn submit(job: Job<'_>) {\n\
             let job: Job<'static> = unsafe { std::mem::transmute(job) };\n\
             send(job);\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SAFETY:"), "{f:?}");
    }

    #[test]
    fn string_literal_unsafe_is_not_a_site() {
        let f = findings("fn f() { log(\"unsafe things\"); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_impl_needs_a_comment_too() {
        let f = findings("unsafe impl<T: Send> Sync for Slot<T> {}\n");
        assert_eq!(f.len(), 1, "{f:?}");
    }
}
