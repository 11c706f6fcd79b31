//! Rule `scope-blocking`: blocking drains reachable from inside a job
//! submitted to a stream.
//!
//! Each (device, stream) of a runtime scope has exactly one thread. A job
//! that *waits* for other jobs on its own stream — directly
//! (`LaunchHandle::wait`, `wait_report`) or by opening a nested `scope` (which
//! drains before it returns) — can self-deadlock: the stream's only
//! thread parks waiting for a job that no other thread exists to run. The
//! rule therefore flags any blocking call reachable (transitively,
//! through [`crate::callgraph::Summaries`]) from the closure argument of
//! a `submit` / `launch_named` call.
//!
//! Host-side closures are exempt by construction: the rule inspects only
//! the *arguments* of submit-family method calls, never `scope`'s own
//! closure, which runs on the submitting thread.

use crate::analysis::RawFinding;
use crate::callgraph::Summaries;
use crate::cfg::{extract_calls, Call};
use crate::parse::{visit_exprs, FnDef};

/// Submit-family methods whose closure argument runs on a stream thread.
const SUBMITS: &[&str] = &["submit", "launch_named"];

/// Unconditionally blocking drain primitives.
const DRAINS: &[&str] = &["scope", "wait_report"];

/// Is this call a blocking drain — a drain primitive, a zero-argument
/// `wait()` (`LaunchHandle::wait` style; `cv.wait(stamp)` with
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
            let blocking = c
                .args
                .iter()
                .flat_map(|arg| extract_calls(arg))
                .find_map(|inner| blocking_name(&inner, sums));
            if let Some(n) = blocking {
                out.push(RawFinding {
                    line: Some(c.line),
                    col: Some(c.col),
                    rule: "scope-blocking",
                    message: format!(
                        "job submitted via `{}` calls blocking `{n}` — the \
                         stream's only thread parks in it, and a later job \
                         of the same stream can never run to release it; \
                         wait on the host side instead",
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
        let src = "pub fn worker_waits(rs: &RuntimeScope, h: LaunchHandle<u32>) {\n\
            rs.submit(0, 0, move || h.wait());\n\
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
        let src = "fn await_launch(h: LaunchHandle<u32>) {\n\
            h.wait();\n\
        }\n\
        pub fn bad(rs: &RuntimeScope, h: LaunchHandle<u32>) {\n\
            rs.launch_named(\"drain\", move || await_launch(h));\n\
        }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`await_launch`"), "{f:?}");
    }

    #[test]
    fn spawn_closure_is_a_thread_boundary() {
        // A function that parks a spawned thread on a wait must not be
        // summarized as blocking: the spawner returns immediately.
        let src = "fn spawn_waiter(h: LaunchHandle<u32>) {\n\
            std::thread::spawn(move || h.wait());\n\
        }\n\
        pub fn ok(rs: &RuntimeScope, h: LaunchHandle<u32>) {\n\
            rs.submit(0, 0, move || spawn_waiter(h));\n\
        }";
        assert!(findings(src).is_empty(), "{:?}", findings(src));

        // ...but a wait *outside* the spawn argument still blocks.
        let src = "fn spawn_then_wait(h: LaunchHandle<u32>) {\n\
            std::thread::spawn(move || step());\n\
            h.wait();\n\
        }\n\
        pub fn bad(rs: &RuntimeScope, h: LaunchHandle<u32>) {\n\
            rs.submit(0, 0, move || spawn_then_wait(h));\n\
        }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`spawn_then_wait`"), "{f:?}");
    }

    #[test]
    fn test_functions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n\
            fn t(rs: &RuntimeScope, h: LaunchHandle<u32>) { rs.submit(0, 0, move || h.wait()); }\n\
        }";
        assert!(findings(src).is_empty());
    }
}
