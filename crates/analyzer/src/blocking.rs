//! Rule `scope-blocking`: blocking drains reachable from inside a pool
//! worker job, and unsafe scope-erasure without a registered drain.
//!
//! Each (device, stream) of a runtime scope has exactly one thread. A job
//! that *waits* for other jobs on its own stream — directly
//! (`Event::wait`, `wait_all`, `wait_report`) or by opening a nested
//! `scope` (which drains before it returns) — can self-deadlock: the
//! stream's only thread parks waiting for a job that no other thread
//! exists to run. The rule
//! therefore flags any blocking call reachable (transitively, through
//! [`crate::callgraph::Summaries`]) from the closure argument of a
//! `submit` / `launch` / `launch_named` call.
//!
//! Host-side closures are exempt by construction: the rule inspects only
//! the *arguments* of submit-family method calls, never `scope`'s own
//! closure, which runs on the submitting thread.
//!
//! The second check is token-level: a `transmute` that erases a lifetime
//! to `'static` (the scope-erasure idiom used to hand borrowed closures
//! to worker threads) is only sound if the file also registers a drain
//! (`wait_all`) that keeps the erased borrows alive until the workers are
//! done. `transmute` + `'static` with no `wait_all` anywhere in the file
//! is flagged.

use crate::analysis::RawFinding;
use crate::callgraph::Summaries;
use crate::cfg::{extract_calls, Call};
use crate::lex::{Tok, TokKind};
use crate::parse::{visit_exprs, FnDef};

/// Submit-family methods whose closure argument runs on a pool worker.
const SUBMITS: &[&str] = &["submit", "launch", "launch_named"];

/// Unconditionally blocking drain primitives.
const DRAINS: &[&str] = &["scope", "wait_all", "wait_report"];

/// Is this call a blocking drain — a drain primitive, a zero-argument
/// `wait()` (`Event::wait` / handle-join style; `cv.wait(stamp)` with
/// arguments is a different, host-side API), or a call into a function
/// whose summary says it blocks?
fn blocking_name(c: &Call, sums: &Summaries) -> Option<String> {
    let n = c.name.as_str();
    // `scope` only as a method (`runtime.scope(..)`): a free-path
    // `std::thread::scope(..)`, such as a launch's block fan-out, joins
    // only the threads it spawned itself, never a later job of its stream.
    if DRAINS.contains(&n) && (n != "scope" || c.is_method) {
        return Some(c.name.clone());
    }
    if n == "wait" && c.args.is_empty() {
        return Some(c.name.clone());
    }
    if !crate::callgraph::opaque_name(n) && sums.get(n).is_some_and(|s| s.blocks) {
        return Some(c.name.clone());
    }
    None
}

/// Flag submit-family calls whose job argument reaches a blocking drain.
/// One finding per submit site, naming the first blocking callee found.
pub fn check_fn(f: &FnDef, sums: &Summaries) -> Vec<RawFinding> {
    if f.in_test {
        return Vec::new();
    }
    let mut out = Vec::new();
    visit_exprs(&f.body, &mut |toks| {
        for c in extract_calls(toks) {
            if !c.is_method || !SUBMITS.contains(&c.name.as_str()) {
                continue;
            }
            let mut reason: Option<String> = None;
            for arg in &c.args {
                for inner in extract_calls(arg) {
                    if let Some(n) = blocking_name(&inner, sums) {
                        reason = Some(format!("calls blocking `{n}`"));
                        break;
                    }
                }
                if reason.is_none()
                    && arg
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text == "ScopeSync")
                {
                    reason = Some("creates a ScopeSync (drains on drop)".to_string());
                }
                if reason.is_some() {
                    break;
                }
            }
            if let Some(r) = reason {
                out.push(RawFinding {
                    line: Some(c.line),
                    col: Some(c.col),
                    rule: "scope-blocking",
                    message: format!(
                        "job submitted via `{}` {r} — a pool worker waiting on \
                         its own pool self-deadlocks once all workers are \
                         parked; wait on the host side instead",
                        c.name
                    ),
                });
            }
        }
    });
    out
}

/// Summary hook: does calling this function reach a blocking drain?
///
/// `spawn(..)` is a thread boundary: its closure runs on a *new* OS
/// thread while the spawner returns immediately, so drains inside a spawn
/// argument (a worker loop parked on a condvar, say) never block the
/// caller and must not poison its summary.
pub fn blocks_out(f: &FnDef, sums: &Summaries) -> bool {
    if f.in_test {
        return false;
    }
    let mut blocks = false;
    visit_exprs(&f.body, &mut |toks| {
        if blocks {
            return;
        }
        let calls = crate::cfg::extract_calls_spanned(toks);
        let spawn_spans: Vec<(usize, usize)> = calls
            .iter()
            .filter(|(c, _)| c.name == "spawn")
            .map(|&(_, span)| span)
            .collect();
        for (c, (start, _)) in &calls {
            if spawn_spans.iter().any(|&(s, e)| *start > s && *start < e) {
                continue;
            }
            if blocking_name(c, sums).is_some() {
                blocks = true;
                return;
            }
        }
    });
    blocks
}

/// File-level erasure check over the raw token stream: a `transmute` with
/// a `'static` lifetime nearby, in a file with no `wait_all` drain, erases
/// borrow lifetimes with nothing holding them alive.
pub fn check_erasure(toks: &[Tok]) -> Vec<RawFinding> {
    let has_drain = toks.iter().any(|t| t.is_ident("wait_all"));
    if has_drain {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("transmute") {
            continue;
        }
        let window = &toks[i..toks.len().min(i + 40)];
        if window.iter().any(|w| w.is_punct("'static")) {
            out.push(RawFinding {
                line: Some(t.line),
                col: Some(t.col),
                rule: "scope-blocking",
                message: "transmute to 'static erases borrow lifetimes with no \
                          wait_all drain registered in this file — workers may \
                          outlive the borrows they capture"
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
    use crate::parse::parse_file;

    fn findings(src: &str) -> Vec<RawFinding> {
        let fns = parse_file(&lex(src));
        let sums = Summaries::build(&fns);
        fns.iter().flat_map(|f| check_fn(f, &sums)).collect()
    }

    #[test]
    fn wait_inside_submitted_job_flagged() {
        let src = "pub fn worker_waits(rs: &RuntimeScope, ev: &Event) {\n\
            rs.submit(0, 0, move || ev.wait());\n\
        }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "scope-blocking");
        assert_eq!(f[0].line, Some(2));
        assert!(f[0].message.contains("`wait`"), "{f:?}");
    }

    #[test]
    fn wait_with_args_is_not_blocking() {
        // cv.wait(stamp) is the host-side condvar API, not a drain.
        let src = "pub fn host_poll(rs: &RuntimeScope, cv: &Cv, stamp: u64) {\n\
            rs.submit(0, 0, move || cv.notify(stamp));\n\
            cv.wait(stamp);\n\
        }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn host_side_scope_closure_is_exempt() {
        // scope's own closure runs on the submitting thread; only submit
        // arguments are worker jobs.
        let src = "pub fn run(rt: &Runtime) {\n\
            rt.scope(|s| {\n\
                s.submit(0, 0, move || step());\n\
            });\n\
        }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn blocking_reached_through_helper_summary() {
        let src = "fn drain_all(sync: &ScopeHandle) {\n\
            sync.wait_all();\n\
        }\n\
        pub fn bad(rs: &RuntimeScope, sync: &ScopeHandle) {\n\
            rs.launch_named(\"drain\", move || drain_all(sync));\n\
        }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`drain_all`"), "{f:?}");
    }

    #[test]
    fn scope_sync_construction_inside_job_flagged() {
        let src = "pub fn nested(rs: &RuntimeScope) {\n\
            rs.submit(0, 0, move || { let s = ScopeSync::new(); s.go(); });\n\
        }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("ScopeSync"), "{f:?}");
    }

    #[test]
    fn erasure_without_drain_flagged_with_drain_clean() {
        let bad = lex(
            "pub fn erase(f: Box<dyn FnOnce() + '_>) -> Box<dyn FnOnce() + 'static> {\n\
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + '_>, Box<dyn FnOnce() + 'static>>(f) }\n\
            }",
        );
        let f = check_erasure(&bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "scope-blocking");
        assert_eq!(f[0].line, Some(2));

        let good = lex(
            "pub fn erase(f: Box<dyn FnOnce() + '_>) -> Box<dyn FnOnce() + 'static> {\n\
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + '_>, Box<dyn FnOnce() + 'static>>(f) }\n\
            }\n\
            pub fn drop_guard(s: &ScopeSync) { s.wait_all(); }\n",
        );
        assert!(check_erasure(&good).is_empty());
    }

    #[test]
    fn spawn_closure_is_a_thread_boundary() {
        // A constructor that parks worker threads on a drain must not be
        // summarized as blocking: the spawner returns immediately.
        let src = "fn new_pool(sync: &ScopeHandle) {\n\
            std::thread::spawn(move || sync.wait_all());\n\
        }\n\
        pub fn ok(rs: &RuntimeScope, sync: &ScopeHandle) {\n\
            rs.submit(0, 0, move || new_pool(sync));\n\
        }";
        assert!(findings(src).is_empty(), "{:?}", findings(src));

        // ...but a drain *outside* the spawn argument still blocks.
        let src = "fn new_pool_then_drain(sync: &ScopeHandle) {\n\
            std::thread::spawn(move || step());\n\
            sync.wait_all();\n\
        }\n\
        pub fn bad(rs: &RuntimeScope, sync: &ScopeHandle) {\n\
            rs.submit(0, 0, move || new_pool_then_drain(sync));\n\
        }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`new_pool_then_drain`"), "{f:?}");
    }

    #[test]
    fn test_functions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n\
            fn t(rs: &RuntimeScope, ev: &Event) { rs.submit(0, 0, move || ev.wait()); }\n\
        }";
        assert!(findings(src).is_empty());
    }
}
