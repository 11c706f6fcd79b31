//! Rules `nondet-order` and `float-reduce-order`: iteration-order
//! nondeterminism flowing into estimates, reports, and serialized output.
//!
//! gSWORD's headline guarantee is that estimates are bit-identical across
//! device×stream topologies. Two things silently break that guarantee:
//!
//! * **`nondet-order`** — `HashMap`/`HashSet` iteration order is
//!   randomized per process. An early `return` inside such a loop, or a
//!   sequence (`push` / `push_str` / `extend`) built in that order,
//!   produces run-to-run-varying output.
//! * **`float-reduce-order`** — f64 addition is not associative, so a
//!   `+=` accumulation (or an estimate `merge`) performed in unordered
//!   iteration order yields different bits per run and per shard count.
//!
//! The escape hatch is the *sorted-snapshot* idiom: collect into a `Vec`,
//! sort it, then iterate — a receiver that is visibly sorted (any
//! `.sort*()` call on it) is exempt, as are `BTreeMap`/`BTreeSet`
//! receivers. The checks walk the statement tree (not the CFG) because
//! assignment operators and spans live there; taint is a small fixpoint so
//! unordered data tracked through `let` chains is still seen at the sink.

use std::collections::HashSet;

use crate::analysis::RawFinding;
use crate::callgraph::Summaries;
use crate::cfg::extract_calls;
use crate::lex::{Tok, TokKind};
use crate::parse::{Block, FnDef, Stmt};

/// Methods that exist (essentially) only on hash maps/sets — unordered on
/// any receiver that is not visibly ordered.
const MAP_ONLY_ITERS: &[&str] = &["keys", "values", "values_mut", "into_keys", "into_values"];

/// Generic iteration methods — unordered only when the receiver is a
/// known hash container.
const GENERIC_ITERS: &[&str] = &["iter", "iter_mut", "into_iter", "drain"];

/// Order-sensitive sequence sinks.
const SEQ_SINKS: &[&str] = &["push", "push_str", "extend"];

/// Estimate-merge sinks: f64 accumulation whose result must not depend on
/// visit order (`Estimate::merge`).
const MERGE_SINKS: &[&str] = &["merge"];

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ORDERED_TYPES: &[&str] = &["BTreeMap", "BTreeSet", "BinaryHeap"];
const FLOAT_TYPES: &[&str] = &["f32", "f64"];

/// Name-level environment for one function body.
#[derive(Default)]
struct Env {
    /// Locals/params of hash-container type.
    hash_vars: HashSet<String>,
    /// Locals of visibly ordered container type.
    ordered: HashSet<String>,
    /// Locals holding data derived from unordered iteration.
    tainted: HashSet<String>,
    /// Receivers of a `.sort*()` call anywhere in the body.
    sorted: HashSet<String>,
    /// Locals/params of float type.
    floats: HashSet<String>,
}

impl Env {
    fn build(f: &FnDef, sums: &Summaries) -> Env {
        let mut env = Env::default();
        for p in &f.params {
            if HASH_TYPES.iter().any(|t| p.ty.contains(t)) {
                env.hash_vars.insert(p.name.clone());
            }
            if ORDERED_TYPES.iter().any(|t| p.ty.contains(t)) {
                env.ordered.insert(p.name.clone());
            }
            if FLOAT_TYPES.iter().any(|t| p.ty.contains(t)) {
                env.floats.insert(p.name.clone());
            }
        }
        // Sorted receivers first: they exempt taint introduced anywhere.
        collect_sorted(&f.body, &mut env.sorted);
        // Taint through `let` chains needs a fixpoint.
        loop {
            let before = (
                env.hash_vars.len(),
                env.ordered.len(),
                env.tainted.len(),
                env.floats.len(),
            );
            scan_block(&f.body, &mut env, sums);
            if (
                env.hash_vars.len(),
                env.ordered.len(),
                env.tainted.len(),
                env.floats.len(),
            ) == before
            {
                break;
            }
        }
        env
    }

    fn first_seg(recv: &str) -> &str {
        recv.split_whitespace().next().unwrap_or(recv)
    }

    /// Is this receiver chain visibly order-safe (sorted or ordered type)?
    fn recv_ordered(&self, recv: &str) -> bool {
        let base = Env::first_seg(recv);
        self.sorted.contains(base) || self.ordered.contains(base)
    }

    /// Does evaluating this expression visit or read hash-ordered data?
    fn expr_unordered(&self, toks: &[Tok], sums: &Summaries) -> bool {
        for c in extract_calls(toks) {
            if c.is_method {
                let recv = c.recv.as_deref().unwrap_or("");
                if self.recv_ordered(recv) {
                    continue;
                }
                let base = Env::first_seg(recv);
                if MAP_ONLY_ITERS.contains(&c.name.as_str()) {
                    return true;
                }
                if GENERIC_ITERS.contains(&c.name.as_str())
                    && (self.hash_vars.contains(base) || self.tainted.contains(base))
                {
                    return true;
                }
            } else if !crate::callgraph::opaque_name(&c.name)
                && sums.get(&c.name).is_some_and(|s| s.unordered_out)
            {
                return true;
            }
        }
        // Iterating (or borrowing) a hash container / tainted value
        // directly, with no sort in sight.
        toks.iter().any(|t| {
            t.kind == TokKind::Ident
                && (self.hash_vars.contains(&t.text)
                    || (self.tainted.contains(&t.text) && !self.sorted.contains(&t.text)))
        })
    }

    fn is_floaty(&self, target: &str, value: &[Tok]) -> bool {
        self.floats.contains(target)
            || value.iter().any(|t| {
                is_float_lit(t)
                    || (t.kind == TokKind::Ident
                        && (FLOAT_TYPES.contains(&t.text.as_str())
                            || self.floats.contains(&t.text)))
            })
    }
}

fn is_float_lit(t: &Tok) -> bool {
    t.kind == TokKind::Lit
        && t.text.contains('.')
        && t.text.chars().next().is_some_and(|c| c.is_ascii_digit())
}

fn ty_or_init_names(ty: &[Tok], init: &[Tok], wanted: &[&str]) -> bool {
    ty.iter()
        .chain(init.iter())
        .any(|t| t.kind == TokKind::Ident && wanted.contains(&t.text.as_str()))
}

/// One env-growing pass over a block (called to fixpoint).
fn scan_block(b: &Block, env: &mut Env, sums: &Summaries) {
    for s in &b.stmts {
        match s {
            Stmt::Let {
                names,
                ty,
                init,
                else_block,
                ..
            } => {
                if ty_or_init_names(ty, init, HASH_TYPES) {
                    env.hash_vars.extend(names.iter().cloned());
                }
                if ty_or_init_names(ty, init, ORDERED_TYPES) {
                    env.ordered.extend(names.iter().cloned());
                }
                if ty_or_init_names(ty, init, FLOAT_TYPES) || init.iter().any(is_float_lit) {
                    env.floats.extend(names.iter().cloned());
                }
                if env.expr_unordered(init, sums) {
                    for n in names {
                        if !env.sorted.contains(n) {
                            env.tainted.insert(n.clone());
                        }
                    }
                }
                if let Some(eb) = else_block {
                    scan_block(eb, env, sums);
                }
            }
            Stmt::Assign { target, value, .. }
                if env.expr_unordered(value, sums) && !env.sorted.contains(target) =>
            {
                env.tainted.insert(target.clone());
            }
            Stmt::If { then_b, else_b, .. } => {
                scan_block(then_b, env, sums);
                if let Some(eb) = else_b {
                    scan_block(eb, env, sums);
                }
            }
            Stmt::While { body, .. } | Stmt::Loop { body } => scan_block(body, env, sums),
            Stmt::For {
                bindings,
                iter,
                body,
            } => {
                // Bindings of an unordered loop are themselves
                // order-dependent values.
                if env.expr_unordered(iter, sums) {
                    env.tainted.extend(bindings.iter().cloned());
                }
                scan_block(body, env, sums);
            }
            Stmt::Match { arms, .. } => {
                for (_, body) in arms {
                    scan_block(body, env, sums);
                }
            }
            Stmt::Block(inner) | Stmt::Unsafe { body: inner, .. } => scan_block(inner, env, sums),
            _ => {}
        }
    }
}

/// Record every receiver of a `.sort*()` call, recursively.
fn collect_sorted(b: &Block, sorted: &mut HashSet<String>) {
    crate::parse::visit_exprs(b, &mut |toks| {
        for c in extract_calls(toks) {
            if c.is_method && c.name.starts_with("sort") {
                if let Some(recv) = &c.recv {
                    sorted.insert(Env::first_seg(recv).to_string());
                }
            }
        }
    });
}

/// Run both order rules on one (non-test) function.
pub fn check_fn(f: &FnDef, sums: &Summaries) -> Vec<RawFinding> {
    if f.in_test {
        return Vec::new();
    }
    let env = Env::build(f, sums);
    let mut out = Vec::new();
    walk(&f.body, &env, sums, false, &mut out);
    out
}

/// Recursive findings walk; `in_unordered` is true inside any loop whose
/// iteration order comes from a hash container.
fn walk(b: &Block, env: &Env, sums: &Summaries, in_unordered: bool, out: &mut Vec<RawFinding>) {
    for s in &b.stmts {
        match s {
            Stmt::For { iter, body, .. } => {
                let unordered = env.expr_unordered(iter, sums);
                walk(body, env, sums, in_unordered || unordered, out);
            }
            Stmt::While { body, .. } | Stmt::Loop { body } => {
                walk(body, env, sums, in_unordered, out)
            }
            Stmt::If { then_b, else_b, .. } => {
                walk(then_b, env, sums, in_unordered, out);
                if let Some(eb) = else_b {
                    walk(eb, env, sums, in_unordered, out);
                }
            }
            Stmt::Match { arms, .. } => {
                for (_, body) in arms {
                    walk(body, env, sums, in_unordered, out);
                }
            }
            Stmt::Block(inner) | Stmt::Unsafe { body: inner, .. } => {
                walk(inner, env, sums, in_unordered, out)
            }
            Stmt::Let {
                else_block: Some(eb),
                ..
            } => walk(eb, env, sums, in_unordered, out),
            Stmt::Assign {
                target,
                op,
                value,
                line,
                col,
            } if in_unordered && op == "+=" && env.is_floaty(target, value) => {
                out.push(RawFinding {
                    line: Some(*line),
                    col: Some(*col),
                    rule: "float-reduce-order",
                    message: format!(
                        "float accumulation into `{target}` inside an unordered \
                         HashMap/HashSet iteration — the sum's bits depend on \
                         iteration order; iterate a sorted snapshot instead"
                    ),
                });
            }
            Stmt::Return(toks) if in_unordered && !toks.is_empty() => {
                let (line, col) = toks
                    .first()
                    .map(|t| (Some(t.line), Some(t.col)))
                    .unwrap_or((None, None));
                out.push(RawFinding {
                    line,
                    col,
                    rule: "nondet-order",
                    message: "early return inside an unordered HashMap/HashSet \
                              iteration — which element is reported depends on \
                              iteration order; sort the entries before iterating"
                        .to_string(),
                });
            }
            Stmt::Expr(toks) if in_unordered => {
                for c in extract_calls(toks) {
                    if c.is_method && SEQ_SINKS.contains(&c.name.as_str()) {
                        let recv = c.recv.as_deref().unwrap_or("");
                        if !env.recv_ordered(recv) {
                            out.push(RawFinding {
                                line: Some(c.line),
                                col: Some(c.col),
                                rule: "nondet-order",
                                message: format!(
                                    "sequence `{}` is built in HashMap/HashSet \
                                     iteration order — output varies per run; \
                                     sort the entries first or sort the result",
                                    Env::first_seg(recv)
                                ),
                            });
                        }
                    }
                    if MERGE_SINKS.contains(&c.name.as_str()) {
                        out.push(RawFinding {
                            line: Some(c.line),
                            col: Some(c.col),
                            rule: "float-reduce-order",
                            message: format!(
                                "estimate merge `{}` inside an unordered \
                                 iteration — f64 accumulation order varies with \
                                 shard/device count; merge in canonical (sorted) \
                                 order",
                                c.name
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Summary hook: does this function's return value depend on hash
/// iteration order?
pub fn unordered_out(f: &FnDef, sums: &Summaries) -> bool {
    if f.in_test {
        return false;
    }
    let env = Env::build(f, sums);
    crate::analysis::return_exprs(&f.body)
        .iter()
        .any(|e| env.expr_unordered(e, sums))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse_file;

    fn findings(src: &str) -> Vec<RawFinding> {
        let fns = parse_file(&lex(src));
        let sums = Summaries::build(&fns);
        fns.iter().flat_map(|f| check_fn(f, &sums)).collect()
    }

    #[test]
    fn early_return_under_hash_loop_is_nondet_order() {
        let src = "pub fn validate(spans: &[Span]) -> Result<(), String> {\n\
            let mut by_track: HashMap<Track, Vec<u64>> = HashMap::new();\n\
            for s in spans { by_track.entry(s.track).or_default().push(s.t); }\n\
            for (track, ts) in by_track {\n\
                if ts.len() > 1 {\n\
                    return Err(format!(\"overlap on {track:?}\"));\n\
                }\n\
            }\n\
            Ok(())\n\
        }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "nondet-order");
        assert_eq!(f[0].line, Some(6));
        assert!(f[0].col.is_some());
    }

    #[test]
    fn float_accumulation_under_hash_loop_flagged() {
        let src = "pub fn total(m: &HashMap<u32, f64>) -> f64 {\n\
            let mut t: f64 = 0.0;\n\
            for v in m.values() {\n\
                t += v;\n\
            }\n\
            t\n\
        }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "float-reduce-order");
        assert_eq!(f[0].line, Some(4));
    }

    #[test]
    fn integer_accumulation_under_hash_loop_is_clean() {
        let src = "pub fn count(m: &HashMap<u32, u64>) -> u64 {\n\
            let mut t: u64 = 0;\n\
            for v in m.values() {\n\
                t += v;\n\
            }\n\
            t\n\
        }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn sorted_snapshot_idiom_is_clean() {
        let src = "pub fn report(m: &HashMap<u32, f64>) -> f64 {\n\
            let mut entries: Vec<(u32, f64)> = m.iter().map(|(k, v)| (*k, *v)).collect();\n\
            entries.sort_by_key(|e| e.0);\n\
            let mut t: f64 = 0.0;\n\
            for e in entries {\n\
                t += e.1;\n\
            }\n\
            t\n\
        }";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn push_under_hash_loop_flagged_unless_sorted_after() {
        let bad = "pub fn names(m: &HashMap<u32, String>) -> Vec<String> {\n\
            let mut out = Vec::new();\n\
            for v in m.values() {\n\
                out.push(v.clone());\n\
            }\n\
            out\n\
        }";
        let f = findings(bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "nondet-order");
        let fixed = "pub fn names(m: &HashMap<u32, String>) -> Vec<String> {\n\
            let mut out = Vec::new();\n\
            for v in m.values() {\n\
                out.push(v.clone());\n\
            }\n\
            out.sort();\n\
            out\n\
        }";
        assert!(findings(fixed).is_empty());
    }

    #[test]
    fn btree_iteration_is_ordered() {
        let src = "pub fn total(m: &BTreeMap<u32, f64>) -> f64 {\n\
            let mut t: f64 = 0.0;\n\
            for v in m.values() {\n\
                t += v;\n\
            }\n\
            t\n\
        }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn merge_under_hash_loop_is_float_reduce_order() {
        let src = "pub fn combine(parts: &HashMap<u32, Estimate>, acc: &mut Estimate) {\n\
            for p in parts.values() {\n\
                acc.merge(p);\n\
            }\n\
        }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "float-reduce-order");
        assert!(f[0].message.contains("`merge`"), "{f:?}");
    }

    #[test]
    fn taint_flows_through_let_chain() {
        let src = "pub fn relay(m: &HashMap<u32, u32>) -> u32 {\n\
            let ks: Vec<u32> = m.keys().cloned().collect();\n\
            let picked = ks;\n\
            for k in picked {\n\
                return k;\n\
            }\n\
            0\n\
        }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "nondet-order");
    }

    #[test]
    fn test_functions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n\
            fn helper(m: &HashMap<u32, u32>) -> u32 {\n\
                for k in m.keys() { return *k; }\n\
                0\n\
            }\n\
        }";
        assert!(findings(src).is_empty());
    }
}
