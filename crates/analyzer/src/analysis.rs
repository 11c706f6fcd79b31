//! The uniformity dataflow and the kernel-body rules.
//!
//! Two analyses run over each kernel function's CFG:
//!
//! 1. **Divergence seeding** (flow-insensitive fixpoint): a variable is
//!    *Divergent* if it is bound by a per-lane loop (`for lane in
//!    lanes_of(mask)`, `0..WARP_SIZE`, iteration over a `Lanes` container)
//!    or assigned from an expression that reads divergent data (a
//!    lane-indexed container element or another divergent variable).
//!    Warp-primitive results are *Uniform* by construction — cross-lane
//!    communication collapses divergence — so `ballot(..) != mask` is a
//!    uniform branch even though `ballot` reads per-lane data. With
//!    summaries, a call to a helper whose return value reads per-lane
//!    data is itself divergent.
//! 2. **Declared-mask dataflow** (flow-sensitive, forward): tracks the
//!    most recent `set_active(expr)` declaration along each path, joining
//!    to *Unknown* (permissive) where paths disagree. Rule `divergent-sync`
//!    fires when a warp primitive's participation mask contradicts the
//!    declaration: full mask under divergent control with no declaration,
//!    full mask when only a subset is declared converged, or a mask that
//!    is neither the declared expression nor derived from it by
//!    intersection. With summaries, a call to a helper that hides a
//!    full-mask primitive (a *latent* primitive) fires at the divergent
//!    call site.
//!
//! Rule `primitive-charges-counters` is per-function rather than per-path:
//! a `pub fn` taking `&mut KernelCounters` must charge the counters
//! through that parameter or forward it to a callee.

use std::collections::HashSet;

use crate::callgraph::{FnSummary, Summaries};
use crate::cfg::{extract_calls_spanned, lower, Action, Call, Cfg, Guard};
use crate::lex::{Tok, TokKind};
use crate::parse::{join, Block, FnDef, Stmt};

/// A rule finding before the file name is attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    pub line: Option<u32>,
    pub col: Option<u32>,
    pub rule: &'static str,
    pub message: String,
}

/// The six warp-synchronous primitives (mask at argument index 2).
const PRIMS: &[&str] = &[
    "any",
    "ballot",
    "shfl",
    "reduce_sum",
    "reduce_count",
    "reduce_max_by_key",
];

/// Free calls whose result is warp-uniform (cross-lane communication).
const UNIFORM_RESULT: &[&str] = &[
    "any",
    "ballot",
    "shfl",
    "reduce_sum",
    "reduce_count",
    "reduce_max_by_key",
    "first_lane",
];

/// Free calls whose result is a per-lane container.
const CONTAINER_RESULT: &[&str] = &["warp_load", "warp_scan"];

/// Counter-charging methods (the dynamic cost model's entry points).
const CHARGE: &[&str] = &["warp_instruction", "warp_load", "diverge"];

/// Names whose summaries are never consulted: `set_active` and the
/// primitives have built-in transfer behavior (so a corpus function
/// shadowing a primitive name cannot weaken the analysis), and ubiquitous
/// std-trait names would alias unrelated implementations
/// ([`crate::callgraph::opaque_name`]).
fn has_builtin_transfer(name: &str) -> bool {
    name == "set_active" || PRIMS.contains(&name) || crate::callgraph::opaque_name(name)
}

/// Is this function subject to the kernel-body rules?
pub fn is_kernel_fn(file: &str, f: &FnDef) -> bool {
    if f.in_test {
        return false;
    }
    if file.replace('\\', "/").ends_with("kernel.rs") {
        return true;
    }
    const KERNEL_TYPES: &[&str] = &[
        "Lanes",
        "WarpMask",
        "SamplePool",
        "KernelCounters",
        "WarpSanitizer",
    ];
    f.params
        .iter()
        .any(|p| KERNEL_TYPES.iter().any(|t| p.ty.contains(t)))
}

/// Run every kernel-body rule on one function, intraprocedurally — every
/// call is opaque. This is the PR-4 analyzer, kept as the before/after
/// baseline for the interprocedural fixture tests.
pub fn analyze_kernel_fn(f: &FnDef) -> Vec<RawFinding> {
    analyze_kernel_fn_with(f, &Summaries::empty())
}

/// Run every kernel-body rule on one function, consulting `sums` at each
/// call site.
pub fn analyze_kernel_fn_with(f: &FnDef, sums: &Summaries) -> Vec<RawFinding> {
    let cfg = lower(&f.body);
    let div = Divergence::build(f, &cfg, sums);
    let mut out = check_flow_rules(&cfg, &div, sums);
    out.extend(check_charges(f, &cfg));
    out
}

// ---------------------------------------------------------------------------
// Divergence seeding
// ---------------------------------------------------------------------------

/// The divergence environment: which variables hold per-lane (divergent)
/// scalars and which hold per-lane containers.
pub struct Divergence {
    divergent: HashSet<String>,
    containers: HashSet<String>,
}

impl Divergence {
    fn build(f: &FnDef, cfg: &Cfg, sums: &Summaries) -> Self {
        let mut d = Divergence {
            divergent: HashSet::new(),
            containers: HashSet::new(),
        };
        for p in &f.params {
            if p.ty.contains("Lanes") || p.ty.contains("WARP_SIZE") {
                d.containers.insert(p.name.clone());
            }
        }
        // Fixpoint: divergence propagates through assignments, and lane
        // loops over freshly discovered containers seed new bindings.
        loop {
            let before = (d.divergent.len(), d.containers.len());
            for g in &cfg.guards {
                if let Guard::Loop { iter, bindings } = g {
                    if d.lane_loop(iter, sums) {
                        d.divergent.extend(bindings.iter().cloned());
                    }
                }
            }
            for node in &cfg.nodes {
                for a in &node.actions {
                    if let Action::Def { names, rhs, ty } = a {
                        let ty_s = join(ty);
                        if ty_s.contains("Lanes")
                            || ty_s.contains("WARP_SIZE")
                            || rhs_makes_container(rhs, sums)
                        {
                            d.containers.extend(names.iter().cloned());
                        }
                        if d.expr_divergent(rhs, sums) {
                            d.divergent.extend(names.iter().cloned());
                        }
                    }
                }
            }
            if (d.divergent.len(), d.containers.len()) == before {
                break;
            }
        }
        d
    }

    /// Does iterating this expression visit lanes individually?
    fn lane_loop(&self, iter: &[Tok], sums: &Summaries) -> bool {
        let mentions = |name: &str| iter.iter().any(|t| t.is_ident(name));
        if mentions("lanes_of") || mentions("WARP_SIZE") {
            return true;
        }
        // Iterating a per-lane container (`for v in vals.iter()` …).
        if iter
            .iter()
            .any(|t| t.kind == TokKind::Ident && self.containers.contains(&t.text))
        {
            return true;
        }
        self.expr_divergent(iter, sums)
    }

    /// Does this expression read divergent (per-lane) data?
    fn expr_divergent(&self, toks: &[Tok], sums: &Summaries) -> bool {
        // Warp-primitive results are uniform: mask out their whole spans so
        // per-lane arguments inside them don't leak divergence.
        let calls = extract_calls_spanned(toks);
        let mut masked = vec![false; toks.len()];
        for (c, (s, e)) in &calls {
            if !c.is_method && UNIFORM_RESULT.contains(&c.name.as_str()) {
                for m in masked.iter_mut().take(e + 1).skip(*s) {
                    *m = true;
                }
            }
        }
        // A call to a helper whose summary says the result reads per-lane
        // data makes the whole expression divergent.
        for (c, (s, _)) in &calls {
            if masked[*s] || has_builtin_transfer(&c.name) {
                continue;
            }
            if sums.get(&c.name).is_some_and(|f| f.divergent_out) {
                return true;
            }
        }
        for (i, t) in toks.iter().enumerate() {
            if masked[i] || t.kind != TokKind::Ident {
                continue;
            }
            if self.divergent.contains(&t.text) {
                return true;
            }
            if self.containers.contains(&t.text) && toks.get(i + 1).is_some_and(|n| n.is_punct("["))
            {
                return true;
            }
        }
        false
    }

    /// Is any guard governing this node warp-divergent?
    fn control_divergent(&self, cfg: &Cfg, node: usize, sums: &Summaries) -> bool {
        cfg.nodes[node]
            .guards
            .iter()
            .any(|&g| match &cfg.guards[g] {
                Guard::Cond(toks) => self.expr_divergent(toks, sums),
                Guard::Loop { iter, .. } => self.lane_loop(iter, sums),
            })
    }
}

/// Container-producing initializer: a `[init; WARP_SIZE]` array literal, a
/// call returning `Lanes` (`warp_load` / `warp_scan`), or a call to a
/// helper whose summary returns a container.
fn rhs_makes_container(rhs: &[Tok], sums: &Summaries) -> bool {
    if rhs.first().is_some_and(|t| t.is_punct("[")) && rhs.iter().any(|t| t.is_ident("WARP_SIZE")) {
        return true;
    }
    if rhs.iter().any(|t| t.is_ident("Lanes")) {
        return true;
    }
    extract_calls_spanned(rhs).iter().any(|(c, _)| {
        (!c.is_method && CONTAINER_RESULT.contains(&c.name.as_str()))
            || (!has_builtin_transfer(&c.name)
                && sums.get(&c.name).is_some_and(|f| f.container_out))
    })
}

// ---------------------------------------------------------------------------
// Flow-sensitive state: the declared mask
// ---------------------------------------------------------------------------

/// The `set_active` declaration lattice, the dataflow state at each node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Decl {
    /// Unreachable.
    Bottom,
    /// No declaration yet on any path.
    None,
    /// Every path declared exactly this mask expression.
    Expr(String),
    /// Paths disagree — be permissive.
    Unknown,
}

impl Decl {
    fn join(&self, other: &Decl) -> Decl {
        match (self, other) {
            (Decl::Bottom, d) | (d, Decl::Bottom) => d.clone(),
            (a, b) if a == b => a.clone(),
            _ => Decl::Unknown,
        }
    }
}

/// Apply one call's effect to the state (no finding emission). A helper
/// that re-declares the active mask invalidates the caller's declaration
/// (permissively).
fn transfer_call(state: &mut Decl, c: &Call, sums: &Summaries) {
    if c.name == "set_active" {
        if let Some(arg) = c.args.first() {
            *state = Decl::Expr(join(arg));
        }
    } else if !has_builtin_transfer(&c.name) && sums.get(&c.name).is_some_and(|s| s.sets_active) {
        *state = Decl::Unknown;
    }
}

fn transfer_node(mut state: Decl, node: &crate::cfg::Node, sums: &Summaries) -> Decl {
    for a in &node.actions {
        if let Action::Call(c) = a {
            transfer_call(&mut state, c, sums);
        }
    }
    state
}

/// Solve the forward dataflow to fixpoint; returns each node's exit state.
fn solve_outs(cfg: &Cfg, sums: &Summaries) -> Vec<Decl> {
    let n = cfg.nodes.len();
    let preds = cfg.preds();
    let mut outs = vec![Decl::Bottom; n];
    loop {
        let mut changed = false;
        for i in 0..n {
            let mut inp = if i == 0 { Decl::None } else { Decl::Bottom };
            for &p in &preds[i] {
                inp = inp.join(&outs[p]);
            }
            let out = transfer_node(inp, &cfg.nodes[i], sums);
            if out != outs[i] {
                outs[i] = out;
                changed = true;
            }
        }
        if !changed {
            return outs;
        }
    }
}

fn entry_states(cfg: &Cfg, outs: &[Decl]) -> Vec<Decl> {
    let preds = cfg.preds();
    (0..cfg.nodes.len())
        .map(|i| {
            let mut inp = if i == 0 { Decl::None } else { Decl::Bottom };
            for &p in &preds[i] {
                inp = inp.join(&outs[p]);
            }
            inp
        })
        .collect()
}

/// Syntactically a full (all-lanes) mask?
fn is_full_mask(m: &str) -> bool {
    m == "u32 :: MAX"
        || m == "WarpMask :: MAX"
        || m.ends_with("FULL_MASK")
        || m == "! 0"
        || m == "! 0u32"
        || m == "0xffff_ffff"
        || m == "0xffffffff"
}

/// Replay the fixpoint states through each node and emit findings for the
/// `divergent-sync` rule, composing callee summaries.
fn check_flow_rules(cfg: &Cfg, div: &Divergence, sums: &Summaries) -> Vec<RawFinding> {
    let outs = solve_outs(cfg, sums);
    let states = entry_states(cfg, &outs);
    let mut out = Vec::new();
    for (i, node) in cfg.nodes.iter().enumerate() {
        let mut st = states[i].clone();
        if st == Decl::Bottom {
            continue; // unreachable
        }
        let ctrl_div = div.control_divergent(cfg, i, sums);
        for a in &node.actions {
            let Action::Call(c) = a else { continue };
            if !c.is_method && PRIMS.contains(&c.name.as_str()) {
                if let Some(mask) = c.args.get(2) {
                    check_prim_mask(c, mask, &st, ctrl_div, cfg, &mut out);
                }
            }
            if !has_builtin_transfer(&c.name) {
                if let Some(s) = sums.get(&c.name) {
                    check_latent_prims(c, s, &st, ctrl_div, &mut out);
                }
            }
            transfer_call(&mut st, c, sums);
        }
    }
    // Sort with rule and message as tiebreakers, so the order never
    // depends on the emission order of the node walk.
    out.sort_by(|a, b| {
        (a.line, a.col, a.rule, a.message.as_str()).cmp(&(
            b.line,
            b.col,
            b.rule,
            b.message.as_str(),
        ))
    });
    out.dedup();
    out
}

/// Interprocedural composition at one call site: latent full-mask
/// primitives inside the callee fire when the call site itself is
/// divergent and undeclared.
fn check_latent_prims(
    c: &Call,
    s: &FnSummary,
    st: &Decl,
    ctrl_div: bool,
    out: &mut Vec<RawFinding>,
) {
    let n = c.name.as_str();
    if ctrl_div && *st == Decl::None {
        if let Some(prim) = s.latent_prims.first() {
            out.push(RawFinding {
                line: Some(c.line),
                col: Some(c.col),
                rule: "divergent-sync",
                message: format!(
                    "warp primitive `{prim}` reached via `{n}` is called with a \
                     full mask under divergent control flow and no set_active \
                     declaration"
                ),
            });
        }
    }
}

fn check_prim_mask(
    c: &Call,
    mask: &[Tok],
    st: &Decl,
    ctrl_div: bool,
    cfg: &Cfg,
    out: &mut Vec<RawFinding>,
) {
    let m = join(mask);
    match st {
        Decl::None => {
            if ctrl_div && is_full_mask(&m) {
                out.push(RawFinding {
                    line: Some(c.line),
                    col: Some(c.col),
                    rule: "divergent-sync",
                    message: format!(
                        "warp primitive `{}` called with a full mask under \
                         divergent control flow and no set_active declaration",
                        c.name
                    ),
                });
            }
        }
        Decl::Expr(declared) => {
            if m == *declared || is_full_mask(declared) {
                return;
            }
            if is_full_mask(&m) {
                out.push(RawFinding {
                    line: Some(c.line),
                    col: Some(c.col),
                    rule: "divergent-sync",
                    message: format!(
                        "warp primitive `{}` called with full mask but \
                         set_active declared only `{declared}` converged",
                        c.name
                    ),
                });
            } else if !derived_by_intersection(&m, declared, cfg) {
                out.push(RawFinding {
                    line: Some(c.line),
                    col: Some(c.col),
                    rule: "divergent-sync",
                    message: format!(
                        "warp primitive `{}` called with stale mask `{m}` but \
                         set_active declared `{declared}`",
                        c.name
                    ),
                });
            }
        }
        Decl::Bottom | Decl::Unknown => {}
    }
}

/// Is mask text `m` derived from declared mask `d` by intersection —
/// either literally (`d & …`) or through a variable whose definition
/// intersects with `d`?
fn derived_by_intersection(m: &str, d: &str, cfg: &Cfg) -> bool {
    if m.contains(d) && m.contains('&') {
        return true;
    }
    for node in &cfg.nodes {
        for a in &node.actions {
            if let Action::Def { names, rhs, .. } = a {
                if names.iter().any(|n| n == m) {
                    let r = join(rhs);
                    if r.contains(d) && r.contains('&') {
                        return true;
                    }
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Summary extraction (flow-related fields)
// ---------------------------------------------------------------------------

/// Compute the flow-related summary fields for one function: return-value
/// divergence, mask re-declaration, and latent full-mask primitives.
/// `unordered_out` and `blocks` are filled in by [`crate::order`] and
/// [`crate::blocking`].
pub fn flow_summary(f: &FnDef, sums: &Summaries) -> FnSummary {
    let cfg = lower(&f.body);
    let div = Divergence::build(f, &cfg, sums);
    let outs = solve_outs(&cfg, sums);
    let states = entry_states(&cfg, &outs);
    let mut s = FnSummary::default();
    for (i, node) in cfg.nodes.iter().enumerate() {
        let mut st = states[i].clone();
        if st == Decl::Bottom {
            continue;
        }
        let ctrl_div = div.control_divergent(&cfg, i, sums);
        for a in &node.actions {
            let Action::Call(c) = a else { continue };
            let n = c.name.as_str();
            if c.name == "set_active" {
                s.sets_active = true;
            } else if !c.is_method && PRIMS.contains(&n) {
                // A full-mask primitive that is locally clean (converged
                // control, no declaration) is *latent*: it becomes a
                // violation only at a divergent call site.
                if let Some(mask) = c.args.get(2) {
                    if is_full_mask(&join(mask)) && st == Decl::None && !ctrl_div {
                        s.latent_prims.push(c.name.clone());
                    }
                }
            } else if !has_builtin_transfer(n) {
                if let Some(cs) = sums.get(n) {
                    s.sets_active |= cs.sets_active;
                    if !ctrl_div && st == Decl::None {
                        for p in &cs.latent_prims {
                            s.latent_prims.push(p.clone());
                        }
                    }
                }
            }
            transfer_call(&mut st, c, sums);
        }
    }
    // Return-value divergence.
    for expr in return_exprs(&f.body) {
        if div.expr_divergent(expr, sums) {
            s.divergent_out = true;
        } else if rhs_makes_container(expr, sums)
            || expr
                .iter()
                .any(|t| t.kind == TokKind::Ident && div.containers.contains(&t.text))
        {
            s.container_out = true;
        }
    }
    s.latent_prims.sort();
    s.latent_prims.dedup();
    s.latent_prims.truncate(8);
    s
}

/// Every `return expr;` in the body (recursively) plus the top-level tail
/// expression, if any.
pub(crate) fn return_exprs(body: &Block) -> Vec<&[Tok]> {
    fn collect<'a>(b: &'a Block, out: &mut Vec<&'a [Tok]>) {
        for s in &b.stmts {
            match s {
                Stmt::Return(toks) if !toks.is_empty() => out.push(toks),
                Stmt::Let {
                    else_block: Some(eb),
                    ..
                } => collect(eb, out),
                Stmt::If { then_b, else_b, .. } => {
                    collect(then_b, out);
                    if let Some(eb) = else_b {
                        collect(eb, out);
                    }
                }
                Stmt::While { body, .. } | Stmt::Loop { body } | Stmt::For { body, .. } => {
                    collect(body, out)
                }
                Stmt::Match { arms, .. } => {
                    for (_, body) in arms {
                        collect(body, out);
                    }
                }
                Stmt::Block(inner) | Stmt::Unsafe { body: inner, .. } => collect(inner, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    collect(body, &mut out);
    if let Some(Stmt::Expr(toks)) = body.stmts.last() {
        out.push(toks);
    }
    out
}

// ---------------------------------------------------------------------------
// primitive-charges-counters
// ---------------------------------------------------------------------------

/// A `pub fn` taking `&mut KernelCounters` must charge the counters
/// through that parameter or forward it to a callee that does.
fn check_charges(f: &FnDef, cfg: &Cfg) -> Vec<RawFinding> {
    if !f.is_pub {
        return Vec::new();
    }
    let Some(p) = f
        .params
        .iter()
        .find(|p| p.ty.contains("mut KernelCounters"))
    else {
        return Vec::new();
    };
    let pname = &p.name;
    let charged = cfg.nodes.iter().flat_map(|n| &n.actions).any(|a| {
        let Action::Call(c) = a else { return false };
        if c.is_method && CHARGE.contains(&c.name.as_str()) && c.recv.as_deref() == Some(pname) {
            return true;
        }
        // Forwarding the counters to a callee also counts as charging —
        // the callee is checked at its own definition.
        c.args.iter().any(|arg| arg_is_var(arg, pname))
    });
    if charged {
        Vec::new()
    } else {
        vec![RawFinding {
            line: None,
            col: None,
            rule: "primitive-charges-counters",
            message: format!(
                "pub fn {} takes &mut KernelCounters but never charges them \
                 (warp_instruction/warp_load/diverge)",
                f.name
            ),
        }]
    }
}

/// Is this argument exactly the variable `name`, modulo `&` / `mut` / `*`?
fn arg_is_var(arg: &[Tok], name: &str) -> bool {
    let mut i = 0;
    while i < arg.len() && (arg[i].is_punct("&") || arg[i].is_ident("mut") || arg[i].is_punct("*"))
    {
        i += 1;
    }
    arg.len() == i + 1 && arg[i].is_ident(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse_file;

    fn kernel_findings(src: &str) -> Vec<RawFinding> {
        let fns = parse_file(&lex(src));
        fns.iter().flat_map(analyze_kernel_fn).collect()
    }

    fn kernel_findings_inter(src: &str) -> Vec<RawFinding> {
        let fns = parse_file(&lex(src));
        let sums = Summaries::build(&fns);
        fns.iter()
            .flat_map(|f| analyze_kernel_fn_with(f, &sums))
            .collect()
    }

    #[test]
    fn full_mask_in_lane_loop_is_divergent_sync() {
        let src = "pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) -> u32 {\n\
            let mut acc = 0u32;\n\
            for lane in lanes_of(mask) {\n\
                acc |= ballot(ctr, san, FULL_MASK, pred);\n\
            }\n\
            acc\n\
        }";
        let f = kernel_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "divergent-sync");
        assert_eq!(f[0].line, Some(4));
        assert!(f[0].col.is_some());
    }

    #[test]
    fn masked_prim_outside_divergence_is_clean() {
        let src = "pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) -> u32 {\n\
            ballot(ctr, san, mask, pred)\n\
        }";
        assert!(kernel_findings(src).is_empty());
    }

    #[test]
    fn stale_mask_after_set_active_flagged() {
        let src = "pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) {\n\
            let gone = ballot(ctr, san, mask, pred);\n\
            let live = mask & !gone;\n\
            san.set_active(live);\n\
            reduce_count(ctr, san, mask, pred);\n\
        }";
        let f = kernel_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "divergent-sync");
        assert!(f[0].message.contains("stale mask `mask`"), "{f:?}");
    }

    #[test]
    fn declared_mask_and_subsets_are_clean() {
        let src = "pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) {\n\
            san.set_active(mask);\n\
            ballot(ctr, san, mask, pred);\n\
            let sub = mask & 0xff;\n\
            reduce_count(ctr, san, sub, pred);\n\
        }";
        assert!(kernel_findings(src).is_empty());
    }

    #[test]
    fn full_declaration_allows_full_mask() {
        let src = "pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) {\n\
            san.set_active(u32::MAX);\n\
            ballot(ctr, san, u32::MAX, pred);\n\
        }";
        assert!(kernel_findings(src).is_empty());
    }

    #[test]
    fn conflicting_declarations_join_permissively() {
        // A loop whose body re-declares: back edge joins Decl::None with
        // Expr(mask) -> Unknown, so no finding.
        let src = "pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) {\n\
            loop {\n\
                if any(ctr, san, mask, pred) { break; }\n\
                san.set_active(mask);\n\
            }\n\
        }";
        assert!(kernel_findings(src).is_empty());
    }

    #[test]
    fn uniform_branch_on_primitive_result_is_clean() {
        let src = "pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) {\n\
            let b = ballot(ctr, san, mask, pred);\n\
            if b != 0 && b != mask {\n\
                reduce_count(ctr, san, mask, pred);\n\
            }\n\
        }";
        assert!(kernel_findings(src).is_empty());
    }

    #[test]
    fn uncharged_counters_param_flagged() {
        let src = "pub fn bad(ctr: &mut KernelCounters, mask: WarpMask) -> u32 {\n\
            mask.count_ones()\n\
        }";
        let f = kernel_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "primitive-charges-counters");
        assert_eq!(f[0].line, None);
        assert!(f[0].message.contains("pub fn bad"), "{f:?}");
    }

    #[test]
    fn charging_and_forwarding_both_count() {
        let direct = "pub fn good(ctr: &mut KernelCounters, mask: WarpMask) {\n\
            ctr.warp_instruction(mask);\n\
        }";
        assert!(kernel_findings(direct).is_empty());
        let forwarded = "pub fn fwd(ctr: &mut KernelCounters, mask: WarpMask) {\n\
            helper(ctr, mask);\n\
        }";
        assert!(kernel_findings(forwarded).is_empty());
    }

    // --- interprocedural ---

    const HIDDEN_PRIM: &str = "\
fn full_ballot(ctr: &mut KernelCounters, san: &WarpSanitizer, pred: &Lanes<bool>) -> u32 {\n\
    ballot(ctr, san, FULL_MASK, pred)\n\
}\n\
pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) -> u32 {\n\
    let mut acc = 0u32;\n\
    for lane in lanes_of(mask) {\n\
        acc |= full_ballot(ctr, san, pred);\n\
    }\n\
    acc\n\
}\n";

    #[test]
    fn latent_prim_invisible_intraprocedurally() {
        assert!(kernel_findings(HIDDEN_PRIM).is_empty());
    }

    #[test]
    fn latent_prim_fires_at_divergent_call_site() {
        let f = kernel_findings_inter(HIDDEN_PRIM);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "divergent-sync");
        assert_eq!(f[0].line, Some(7));
        assert!(f[0].message.contains("via `full_ballot`"), "{f:?}");
    }

    #[test]
    fn divergent_helper_return_seeds_caller_divergence() {
        let src = "\
fn pick(vals: &Lanes<u32>, lane: usize) -> u32 {\n\
    vals[lane]\n\
}\n\
pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, vals: &Lanes<u32>, pred: &Lanes<bool>) {\n\
    let v = pick(vals, 0);\n\
    if v > 1 {\n\
        ballot(ctr, san, FULL_MASK, pred);\n\
    }\n\
}\n";
        assert!(kernel_findings(src).is_empty(), "intra misses this");
        let f = kernel_findings_inter(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "divergent-sync");
        assert_eq!(f[0].line, Some(7));
    }

    #[test]
    fn helper_set_active_joins_to_unknown_not_stale() {
        // The helper re-declares; the caller's old declaration must not
        // produce a stale-mask finding afterwards.
        let src = "\
fn redeclare(san: &WarpSanitizer, m: u32) {\n\
    san.set_active(m);\n\
}\n\
pub fn k(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) {\n\
    san.set_active(mask);\n\
    redeclare(san, mask);\n\
    reduce_count(ctr, san, mask, pred);\n\
}\n";
        assert!(kernel_findings_inter(src).is_empty());
    }
}
