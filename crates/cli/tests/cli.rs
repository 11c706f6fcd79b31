//! End-to-end tests of the `gsword` CLI binary: every subcommand, file
//! round-trips, and error paths.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gsword"))
        .args(args)
        .output()
        .expect("spawn gsword CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn stats_subcommand() {
    let (ok, stdout, _) = run(&["stats", "yeast"]);
    assert!(ok);
    assert!(stdout.contains("|V|=3112"), "{stdout}");
    assert!(stdout.contains("connected components"), "{stdout}");
}

#[test]
fn estimate_and_exact_agree() {
    let (ok, est_out, _) = run(&[
        "estimate",
        "yeast",
        "-q",
        "extract:4:7",
        "--samples",
        "40000",
        "--seed",
        "1",
    ]);
    assert!(ok, "{est_out}");
    let (ok2, exact_out, _) = run(&["exact", "yeast", "-q", "extract:4:7"]);
    assert!(ok2);
    let est: f64 = est_out
        .lines()
        .find_map(|l| l.strip_prefix("estimate: "))
        .expect("estimate line")
        .parse()
        .expect("parse estimate");
    let exact: f64 = exact_out
        .lines()
        .find_map(|l| l.strip_prefix("exact count: "))
        .expect("exact line")
        .parse()
        .expect("parse exact");
    let q = est.max(1.0) / exact.max(1.0);
    assert!((0.5..2.0).contains(&q), "estimate {est} vs exact {exact}");
}

#[test]
fn generate_then_load_round_trip() {
    let dir = std::env::temp_dir().join(format!("gsword-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("yeast.graph");
    let (ok, _, stderr) = run(&["generate", "yeast", "-o", file.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    let (ok2, stdout, _) = run(&["stats", file.to_str().unwrap()]);
    assert!(ok2);
    assert!(stdout.contains("|V|=3112"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn orders_subcommand() {
    let (ok, stdout, _) = run(&["orders", "yeast", "-q", "extract:5:3", "--probe", "500"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("best:"), "{stdout}");
    assert!(stdout.contains("variance"), "{stdout}");
}

#[test]
fn error_paths() {
    let (ok, _, stderr) = run(&["unknown-subcommand"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");

    let (ok, _, stderr) = run(&["estimate", "yeast"]);
    assert!(!ok);
    assert!(stderr.contains("missing -q"), "{stderr}");

    let (ok, _, stderr) = run(&["stats", "nonexistent-dataset"]);
    assert!(!ok);
    assert!(stderr.contains("cannot load graph"), "{stderr}");

    let (ok, _, stderr) = run(&["estimate", "yeast", "-q", "extract:4", "--backend", "tpu"]);
    assert!(!ok);
    assert!(stderr.contains("unknown backend"), "{stderr}");

    // Query sizes outside 2..=32 and unparsable seeds are usage errors.
    for (spec, msg) in [
        ("extract:1", "out of range"),
        ("extract:33", "out of range"),
        ("extract:4:abc", "bad extract seed"),
    ] {
        let (ok, _, stderr) = run(&["estimate", "yeast", "-q", spec]);
        assert!(!ok, "{spec}");
        assert!(!stderr.contains("panicked"), "{spec}: {stderr}");
        assert!(stderr.contains(msg), "{spec}: {stderr}");
    }

    // Flags and positionals a subcommand does not read are usage errors,
    // not silently ignored: a `--samples` typo must not run the default
    // budget, and `--sanitize` takes no value.
    for (extra, msg) in [
        (&["--sample", "1000"][..], "unknown flag --sample"),
        (&["--bogus", "x"][..], "unknown flag --bogus"),
        (&["stray"][..], "unexpected argument 'stray'"),
        (&["--sanitize", "race"][..], "unexpected argument 'race'"),
    ] {
        let mut args = vec!["estimate", "yeast", "-q", "extract:4"];
        args.extend(extra);
        let (ok, _, stderr) = run(&args);
        assert!(!ok, "{extra:?}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
        assert!(stderr.contains(msg), "{extra:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{extra:?}: {stderr}");
    }
}

/// A sanitized run reports a clean kernel and prints the plain run's
/// estimate lines: the sanitizer only observes.
#[test]
fn sanitized_run_is_clean_and_matches_the_plain_run() {
    let args = [
        "estimate",
        "yeast",
        "-q",
        "extract:5:3",
        "--samples",
        "4000",
        "--seed",
        "5",
    ];
    let (ok, plain, stderr) = run(&args);
    assert!(ok, "{stderr}");
    let mut with_sanitizer = args.to_vec();
    with_sanitizer.push("--sanitize");
    let (ok, sanitized, stderr) = run(&with_sanitizer);
    assert!(ok, "{stderr}");
    assert!(
        sanitized
            .lines()
            .any(|l| l == "sanitizer: kernel rsv_sample-sync+inherit+stream clean"),
        "{sanitized}"
    );
    let estimate_lines = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| !l.starts_with("wall time") && !l.starts_with("sanitizer:"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(estimate_lines(&plain), estimate_lines(&sanitized));
    assert!(plain.contains("estimate: "), "{plain}");
}

/// A reader that closes stdout early (`gsword stats yeast | head -3`) ends
/// the output: the command exits 0 without a panic. The child's stdout is
/// a pipe whose read end is already closed, so its first write fails.
#[test]
fn closed_stdout_ends_the_command_quietly() {
    for args in [
        &["stats", "yeast"][..],
        &["estimate", "yeast", "-q", "extract:4", "--samples", "500"][..],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_gsword"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn gsword CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?}\n{stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn trawl_flag_runs() {
    let (ok, stdout, stderr) = run(&[
        "estimate",
        "yeast",
        "-q",
        "extract:4:9",
        "--samples",
        "6000",
        "--trawl",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("trawling estimate"), "{stdout}");
}

#[test]
fn pack_then_stats_round_trip() {
    let out = std::env::temp_dir().join(format!("gsword-cli-pack-{}.gsw", std::process::id()));
    let path = out.to_str().unwrap();
    let (ok, stdout, _) = run(&["pack", "yeast", "-o", path]);
    assert!(ok, "pack failed");
    assert!(stdout.contains("yeast"), "pack output: {stdout}");
    assert!(stdout.contains("% of csr"), "pack output: {stdout}");

    // Packed images are detected by magic and load via the compressed backend.
    let (ok, stdout, _) = run(&["stats", path]);
    assert!(ok, "stats on packed image failed");
    assert!(stdout.contains("backend: compressed"), "stats: {stdout}");
    assert!(stdout.contains("|V|=3112"), "stats: {stdout}");

    // --storage csr decompresses to the in-memory backend.
    let (ok, stdout, _) = run(&["stats", path, "--storage", "csr"]);
    assert!(ok);
    assert!(stdout.contains("backend: csr"), "stats: {stdout}");
    assert!(stdout.contains("|V|=3112"), "stats: {stdout}");

    std::fs::remove_file(&out).ok();
}

#[test]
fn storage_backends_agree_on_estimates() {
    let args = [
        "estimate",
        "yeast",
        "-q",
        "extract:4:7",
        "--samples",
        "200",
        "--seed",
        "11",
    ];
    let (ok_a, out_a, _) = run(&args);
    let mut with_storage: Vec<&str> = args.to_vec();
    with_storage.extend(["--storage", "compressed"]);
    let (ok_b, out_b, _) = run(&with_storage);
    assert!(ok_a && ok_b);
    let est = |s: &str| {
        s.lines()
            .find(|l| l.contains("estimate"))
            .map(str::to_owned)
            .unwrap_or_default()
    };
    assert_eq!(est(&out_a), est(&out_b), "backends must be bit-identical");
    assert!(!est(&out_a).is_empty());
}

#[test]
fn pack_rejects_unknown_dataset_and_bad_scale() {
    let (ok, _, err) = run(&["pack", "livejournal", "-o", "/tmp/x.gsw"]);
    assert!(!ok);
    assert!(err.contains("unknown dataset"), "stderr: {err}");
    let (ok, _, err) = run(&["pack", "yeast", "-o", "/tmp/x.gsw", "--scale", "zero"]);
    assert!(!ok);
    assert!(err.contains("bad --scale"), "stderr: {err}");
}
