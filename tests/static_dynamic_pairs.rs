//! Cross-validation of the static analyzer against the dynamic layers.
//!
//! Every rule `cargo xtask analyze` enforces exists because some runtime
//! misbehavior is real. Each test here has two halves:
//!
//!  * **static**: a minimal bad snippet, analyzed with
//!    `gsword_analyzer::analyze_source`, yields exactly the rule's
//!    diagnostic;
//!  * **dynamic**: the same bug pattern, executed against the simulator,
//!    produces the concrete failure the rule predicts — a sanitizer
//!    violation, a silently wrong device-time estimate, an inexact
//!    counter, or a deadlocked stream.
//!
//! Four of the analyzer's seven rules pair this way; DESIGN.md §10 holds
//! the pairing table and names the tier-1 test behind the other three. This suite sits at the
//! workspace root (outside the `crates/` tree the analyzer walks) so its
//! own deliberately-misbehaving runtime calls are not self-flagged.

use gsword_analyzer::Finding;
use gsword_simt::{
    warp, DeviceConfig, DeviceModel, KernelCounters, LaunchHandle, Runtime, RuntimeConfig,
    SamplePool, Sanitizer, ViolationKind, WARP_SIZE,
};

/// Analyze `src` under the path label `label` and assert the analyzer
/// reports exactly one finding, for `rule`.
fn assert_single_finding(label: &str, src: &str, rule: &str) -> Finding {
    let findings = gsword_analyzer::analyze_source(label, src);
    assert_eq!(
        findings.len(),
        1,
        "{label}: expected exactly one {rule} finding, got:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(findings[0].rule, rule, "{}", findings[0]);
    findings[0].clone()
}

// ---------------------------------------------------------------------------
// divergent-sync  <->  synccheck
// ---------------------------------------------------------------------------

/// Static: a kernel declares the full mask to a warp primitive right after
/// telling the executor only a subset of lanes is converged. Dynamic: the
/// same call sequence trips synccheck's `SyncMaskMismatch` — on hardware
/// the stray lanes make the primitive's result undefined.
#[test]
fn divergent_sync_pairs_with_synccheck() {
    assert_single_finding(
        "kernel.rs",
        "pub fn collapse(ctr: &mut KernelCounters, san: &WarpSanitizer, mask: WarpMask, pred: &Lanes<bool>) -> u32 {
            san.set_active(mask);
            ballot(ctr, san, u32::MAX, pred)
        }",
        "divergent-sync",
    );

    let sz = Sanitizer::new("pair-sync");
    let ws = sz.warp(0, 0);
    let mut ctr = KernelCounters::default();
    ws.set_active(0x0000_FFFF);
    warp::ballot(&mut ctr, &ws, u32::MAX, &[false; WARP_SIZE]);
    let rep = sz.report();
    assert_eq!(rep.violations.len(), 1, "{rep}");
    assert!(matches!(
        rep.violations[0].kind,
        ViolationKind::SyncMaskMismatch {
            declared: 0xFFFF_FFFF,
            active: 0x0000_FFFF,
            ..
        }
    ));
}

// ---------------------------------------------------------------------------
// primitive-charges-counters  <->  the device-time model
// ---------------------------------------------------------------------------

/// Static: a pub fn takes `&mut KernelCounters` and never charges them.
/// Dynamic: work that skips charging is invisible to the device-time
/// model — the modeled kernel time collapses to bare launch overhead, so
/// every optimization ratio computed from it is garbage.
#[test]
fn uncharged_counters_pair_with_zero_modeled_time() {
    assert_single_finding(
        "kernel.rs",
        "pub fn phantom_work(ctr: &mut KernelCounters, items: &Lanes<u32>) -> u32 {
            items.iter().sum()
        }",
        "primitive-charges-counters",
    );

    let model = DeviceModel::default();
    let uncharged = KernelCounters::default();
    assert!(
        (model.modeled_ms(&uncharged) - model.launch_overhead_ms).abs() < 1e-12,
        "uncharged work is invisible to the time model"
    );
    let mut charged = KernelCounters::default();
    for _ in 0..10_000 {
        charged.warp_instruction(u32::MAX);
    }
    assert!(
        model.modeled_ms(&charged) > model.modeled_ms(&uncharged),
        "charging is what makes work cost modeled time"
    );
}

// ---------------------------------------------------------------------------
// no-seqcst  <->  Relaxed is sufficient
// ---------------------------------------------------------------------------

/// Static: a SeqCst ordering is flagged. Dynamic: the pool's Relaxed CAS
/// hands out every task exactly once under real thread contention — the
/// device model's invariants never needed the full fence SeqCst pays for.
#[test]
fn no_seqcst_pairs_with_relaxed_exactness() {
    assert_single_finding(
        "pool.rs",
        "fn cursor_value(cursor: &AtomicU64) -> u64 {
            cursor.load(Ordering::SeqCst)
        }",
        "no-seqcst",
    );

    let pool = SamplePool::new(10_000);
    let count = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                while pool.fetch().is_some() {
                    count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 10_000);
    assert_eq!(pool.issued(), 10_000);
}

// ---------------------------------------------------------------------------
// scope-blocking  <->  a pool worker waiting on its own stream deadlocks
// ---------------------------------------------------------------------------

/// Static: a job submitted to a stream waits on a launch handle from
/// inside the stream thread. Dynamic: each (device, stream) has exactly
/// one thread, so a job that waits for a launch queued *later* on the same
/// stream parks the only thread that could ever run that launch — the
/// scope never drains. The cross-stream version of the same wait is fine,
/// which is why the rule fires on blocking *reachable from a submitted
/// job*, not on handle waits as such.
#[test]
fn scope_blocking_pairs_with_same_stream_deadlock() {
    assert_single_finding(
        "core/src/schedule.rs",
        "pub fn wait_inside_worker(rs: &RuntimeScope, handle: LaunchHandle<usize>) {
            rs.submit(0, 0, move || handle.wait());
        }",
        "scope-blocking",
    );

    let config = RuntimeConfig {
        num_devices: 1,
        streams_per_device: 2,
        device: DeviceConfig {
            num_blocks: 2,
            threads_per_block: 32,
        },
        sim_workers: 1,
    };

    // Cross-stream wait drains: stream 1's thread runs the launch while
    // stream 0's thread is parked in `wait`.
    let rt = Runtime::new(config);
    rt.scope(|rs| {
        let handle = rs.launch_named(0, 1, 0..2, "other-stream", |b| b);
        rs.submit(0, 0, move || assert_eq!(handle.wait(), vec![0, 1]));
    });

    // Same-stream wait deadlocks: the waiter is queued first and is handed
    // the launch queued behind it, so stream 0's only thread parks in
    // `wait` and the launch can never run. Demonstrate via watchdog — the
    // scope must still be stuck after a generous timeout. The runtime is
    // leaked and the thread detached: joining either would block this test
    // forever.
    let rt: &'static Runtime = Box::leak(Box::new(Runtime::new(config)));
    let (tx, rx) = std::sync::mpsc::channel();
    let stuck = std::thread::spawn(move || {
        rt.scope(|rs| {
            let (handle_tx, handle_rx) = std::sync::mpsc::channel::<LaunchHandle<usize>>();
            rs.submit(0, 0, move || {
                handle_rx.recv().expect("handle sent").wait();
            });
            let _ = handle_tx.send(rs.launch_named(0, 0, 0..2, "same-stream", |b| b));
        });
        let _ = tx.send(());
    });
    match rx.recv_timeout(std::time::Duration::from_millis(300)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {} // parked, as predicted
        Ok(()) => panic!("same-stream wait drained — the worker-per-stream model changed"),
        Err(e) => panic!("watchdog channel broke: {e}"),
    }
    drop(stuck);
}
