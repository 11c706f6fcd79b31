//! Per-function summaries — the interprocedural layer.
//!
//! The analyses in [`crate::analysis`], [`crate::order`], and
//! [`crate::blocking`] are statement-level and would stop at call
//! boundaries. This module runs them in *summary mode* over every parsed
//! function in the corpus and iterates to a fixpoint, producing one
//! [`FnSummary`] per function name. The per-file rule passes then consult
//! the summaries at each call site, so a violation hidden behind a helper
//! function (a full-mask primitive, a blocking drain, a HashMap-ordered
//! return value) is seen at the caller.
//!
//! Summaries are keyed by bare function name: the parser does not resolve
//! paths or `impl` blocks, so two methods sharing a name share a summary.
//! Joins are conservative (boolean OR, list union), which can only make
//! the analysis flag more, never less — name collisions degrade to noise
//! that a suppression or rename resolves, not to a missed violation.

use std::collections::HashMap;

use crate::parse::FnDef;

/// Ubiquitous std-trait method names that are never consulted in the
/// summary table. Summaries are keyed by bare name, and names like `drop`
/// or `clone` have dozens of unrelated implementations plus std
/// fallbacks; one effectful impl (e.g. a `Drop` that drains a scope)
/// would otherwise taint every call to `drop(x)` in the corpus. The cost
/// is precision at explicit `drop(scope)` sites.
pub fn opaque_name(name: &str) -> bool {
    const OPAQUE: &[&str] = &[
        "drop",
        "clone",
        "fmt",
        "default",
        "eq",
        "ne",
        "cmp",
        "partial_cmp",
        "hash",
        "next",
        "deref",
        "deref_mut",
        "from",
        "into",
        "index",
        "index_mut",
        "as_ref",
        "as_mut",
        "borrow",
        "borrow_mut",
        "to_string",
    ];
    OPAQUE.contains(&name)
}

/// What a call to this function does to its caller's analysis state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// The return value reads per-lane (divergent) data.
    pub divergent_out: bool,
    /// The return value is a per-lane container (`Lanes`-like).
    pub container_out: bool,
    /// Calls `set_active` somewhere — the caller's mask declaration is
    /// stale after the call (joined to Unknown, permissively).
    pub sets_active: bool,
    /// The return value depends on `HashMap`/`HashSet` iteration order.
    pub unordered_out: bool,
    /// Transitively reaches a blocking drain (`scope` / `wait()` /
    /// `wait_report`) — must not run inside a job submitted to a stream.
    pub blocks: bool,
    /// Warp primitives called with a full mask under no local divergence
    /// and no declaration — harmless where they are, violations when the
    /// call site is divergent. Sorted, deduplicated, capped.
    pub latent_prims: Vec<String>,
}

impl FnSummary {
    /// Conservative join for same-named functions and fixpoint rounds.
    fn join(&mut self, o: &FnSummary) {
        self.divergent_out |= o.divergent_out;
        self.container_out |= o.container_out;
        self.sets_active |= o.sets_active;
        self.unordered_out |= o.unordered_out;
        self.blocks |= o.blocks;
        for p in &o.latent_prims {
            if !self.latent_prims.contains(p) {
                self.latent_prims.push(p.clone());
            }
        }
        self.latent_prims.sort();
        self.latent_prims.truncate(8);
    }
}

/// The corpus-wide summary table.
#[derive(Debug, Default)]
pub struct Summaries {
    map: HashMap<String, FnSummary>,
}

impl Summaries {
    /// No summaries at all — every call is opaque. This is exactly the
    /// PR-4 intraprocedural behavior, kept for before/after comparison.
    pub fn empty() -> Summaries {
        Summaries::default()
    }

    pub fn get(&self, name: &str) -> Option<&FnSummary> {
        self.map.get(name)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Compute summaries for every non-test function by Jacobi iteration:
    /// each round re-summarizes all functions against the previous round's
    /// table, until the table stops changing. All summary lattices are
    /// finite and the transfer functions monotone, so this terminates; the
    /// round cap is a safety net for pathological corpora.
    pub fn build(fns: &[FnDef]) -> Summaries {
        let mut cur = Summaries::default();
        for _round in 0..12 {
            let mut next: HashMap<String, FnSummary> = HashMap::new();
            for f in fns.iter().filter(|f| !f.in_test) {
                let mut s = crate::analysis::flow_summary(f, &cur);
                s.unordered_out = crate::order::unordered_out(f, &cur);
                s.blocks = crate::blocking::blocks_out(f, &cur);
                next.entry(f.name.clone()).or_default().join(&s);
            }
            if next == cur.map {
                break;
            }
            cur.map = next;
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse_file;

    fn fns(src: &str) -> Vec<FnDef> {
        parse_file(&lex(src))
    }

    #[test]
    fn summaries_propagate_blocking_transitively() {
        let f = fns("fn leaf(h: &Handle) { h.wait(); }\n\
             fn mid(h: &Handle) { leaf(h); }\n\
             fn top(h: &Handle) { mid(h); }\n");
        let s = Summaries::build(&f);
        assert!(s.get("leaf").unwrap().blocks);
        assert!(s.get("mid").unwrap().blocks);
        assert!(s.get("top").unwrap().blocks);
    }

    #[test]
    fn summaries_propagate_unordered_transitively() {
        let f = fns(
            "fn keys_of(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().cloned().collect() }\n\
             fn relay(m: &HashMap<u32, u32>) -> Vec<u32> { keys_of(m) }\n",
        );
        let s = Summaries::build(&f);
        assert!(s.get("keys_of").unwrap().unordered_out);
        assert!(s.get("relay").unwrap().unordered_out);
    }

    #[test]
    fn same_name_summaries_join_conservatively() {
        let f = fns("fn poll(h: &Handle) -> bool { h.ready() }\n\
             fn poll(h: &Handle) -> bool { h.wait(); true }\n");
        let s = Summaries::build(&f);
        assert!(
            s.get("poll").unwrap().blocks,
            "join must keep the worst case"
        );
    }

    #[test]
    fn test_functions_do_not_pollute_summaries() {
        let f = fns("#[cfg(test)]\nmod tests {\n  fn scope_it(h: &H) { h.wait(); }\n}\n");
        let s = Summaries::build(&f);
        assert!(s.get("scope_it").is_none());
    }
}
