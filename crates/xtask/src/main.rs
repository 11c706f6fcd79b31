//! Repo maintenance tasks, invoked as `cargo xtask <task>`.
//!
//! `analyze` runs the gsword-analyzer static checks (interprocedural
//! uniformity/blocking dataflow over kernel CFGs plus the migrated repo
//! invariants) over the workspace's crates and fails on any finding.
//! `check-trace` validates Chrome trace JSON emitted by the profiler.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask <task>

tasks:
  analyze [dir]        run the static lockstep-safety analyzer over `dir`
                       (default: the workspace's crates/ directory,
                       excluding xtask and fixture trees); reports
                       machine-readable findings `file:line:col: rule:
                       message` in deterministic order and fails on any
  check-trace <file>   validate a Chrome trace JSON written by
                       `gsword estimate --profile --trace-out <file>`
                       (parses the JSON, checks event shape, reports the
                       track count) — used by the CI profile-smoke step
  pack [dir] [scale]   write all eight suite datasets as compressed
                       mmap-able images (<name>.gsw) into `dir` (default:
                       datasets/ at the workspace root) via `gsword pack
                       all`; the optional scale divides the paper's |V|
                       (1 = full paper size)

rules enforced by analyze:
  1. divergent-sync: warp primitives (any/ballot/shfl/reduce_*) must not
     claim a full or stale participation mask that contradicts the
     set_active declaration or divergent control flow (static synccheck)
  2. primitive-charges-counters: every pub fn taking &mut KernelCounters
     charges the counters (warp_instruction/warp_load/diverge) or
     forwards them to a callee
  3. no-seqcst: no SeqCst atomic orderings (the device model is
     Relaxed/Acquire/Release by design)
  4. nondet-order: HashMap/HashSet iteration order must not flow into
     estimates, reports, or serialized output (sort the entries first)
  5. float-reduce-order: f64/f32 accumulation whose order varies with
     shard or device count must go through a canonically ordered merge
  6. scope-blocking: blocking drains (scope/wait/wait_report) must not
     be reachable from inside a job submitted to a stream
  7. unsafe-escape: every unsafe site carries a `// SAFETY:` comment;
     unsafe-derived slices/pointers that escape the validating function
     are called out explicitly

suppressions: `// gsword: allow(rule, ...)` on or immediately above the
flagged line; `// gsword: allow-file(rule)` anywhere in the file";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => run_analyze(&args[1..]),
        Some("check-trace") => {
            let Some(path) = args.get(1) else {
                eprintln!("xtask check-trace: missing <file>\n{USAGE}");
                return ExitCode::from(2);
            };
            let json = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("xtask check-trace: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match gsword_prof::json::validate_chrome_trace(&json) {
                Ok(summary) => {
                    println!(
                        "xtask check-trace: {path} ok — {} events ({} spans), \
                         {} stream track(s){}",
                        summary.events,
                        summary.complete_events,
                        summary.stream_tracks,
                        if summary.host_track { " + host" } else { "" },
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("xtask check-trace: {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("pack") => {
            let root = workspace_root();
            let out = match args.get(1) {
                Some(p) => PathBuf::from(p),
                None => root.join("datasets"),
            };
            let mut cli = vec![
                "run".to_string(),
                "--release".to_string(),
                "-p".to_string(),
                "gsword-cli".to_string(),
                "--".to_string(),
                "pack".to_string(),
                "all".to_string(),
                "-o".to_string(),
                out.display().to_string(),
            ];
            if let Some(scale) = args.get(2) {
                cli.push("--scale".to_string());
                cli.push(scale.clone());
            }
            let status = std::process::Command::new("cargo")
                .args(&cli)
                .current_dir(&root)
                .status();
            match status {
                Ok(s) if s.success() => ExitCode::SUCCESS,
                Ok(s) => {
                    eprintln!("xtask pack: gsword pack exited with {s}");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("xtask pack: cannot spawn cargo: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("help") | Some("--help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown task '{other}'\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `cargo xtask analyze [dir]`.
fn run_analyze(rest: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    for arg in rest {
        if arg.starts_with("--") {
            eprintln!("xtask analyze: unknown flag '{arg}'\n{USAGE}");
            return ExitCode::from(2);
        }
        if root.is_some() {
            eprintln!("xtask analyze: more than one directory given\n{USAGE}");
            return ExitCode::from(2);
        }
        root = Some(PathBuf::from(arg));
    }
    let root = root.unwrap_or_else(default_analyze_root);
    if !root.exists() {
        eprintln!("xtask analyze: no such directory: {}", root.display());
        return ExitCode::from(2);
    }

    let findings = gsword_analyzer::analyze_tree(&root);
    if findings.is_empty() {
        println!("xtask analyze: clean ({})", root.display());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("xtask analyze: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// The workspace's `crates/` directory (xtask lives at `crates/xtask`).
fn default_analyze_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits inside crates/")
        .to_path_buf()
}

/// The workspace root (`crates/` sits directly under it).
fn workspace_root() -> PathBuf {
    default_analyze_root()
        .parent()
        .expect("crates/ sits inside the workspace")
        .to_path_buf()
}
