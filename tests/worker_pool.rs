//! The scoped stream threads behind [`Runtime::scope`]: one thread per
//! (device, stream) for the length of each scope, ordered per stream,
//! with poisoning kept to the scope whose job panicked — and the
//! per-launch block fan-out, whose results never depend on the worker
//! count and whose panics surface instead of hanging.

use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

use gsword_simt::{DeviceConfig, Runtime, RuntimeConfig};

fn runtime(devices: usize, streams: usize, sim_workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig {
        num_devices: devices,
        streams_per_device: streams,
        device: DeviceConfig {
            num_blocks: 4,
            threads_per_block: 32,
        },
        sim_workers,
    })
}

/// The message of a caught panic payload.
fn panic_message(err: &(dyn std::any::Any + Send)) -> String {
    err.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// Run one scope that submits a job to every (device, stream) and collect
/// the thread ids the jobs ran on.
fn stream_thread_ids(rt: &Runtime) -> HashSet<ThreadId> {
    let ids = Mutex::new(Vec::new());
    rt.scope(|rs| {
        for d in 0..rt.num_devices() {
            for s in 0..rt.streams_per_device() {
                let ids = &ids;
                rs.submit(d, s, move || {
                    ids.lock().unwrap().push(std::thread::current().id());
                });
            }
        }
    });
    ids.into_inner().unwrap().into_iter().collect()
}

#[test]
fn each_stream_runs_on_its_own_thread_in_every_scope() {
    let rt = runtime(2, 2, 1);
    let main = std::thread::current().id();
    for round in 0..3 {
        let ids = stream_thread_ids(&rt);
        assert_eq!(
            ids.len(),
            4,
            "round {round}: one thread per (device, stream)"
        );
        assert!(
            !ids.contains(&main),
            "round {round}: jobs run off the submitting thread"
        );
    }
}

#[test]
fn ordering_and_results_hold_across_scopes() {
    // Ordered-queue semantics must hold in every scope on one runtime, not
    // just the first: same stream → submission order, and launch results
    // still come back in block order.
    let rt = runtime(1, 1, 1);
    for _ in 0..3 {
        let log = Mutex::new(Vec::new());
        let blocks = rt.scope(|rs| {
            for i in 0..6 {
                let log = &log;
                rs.submit(0, 0, move || log.lock().unwrap().push(i));
            }
            rs.launch_named(0, 0, 0..4, "blocks", |b| b * 2).wait()
        });
        assert_eq!(log.into_inner().unwrap(), (0..6).collect::<Vec<_>>());
        assert_eq!(blocks, vec![0, 2, 4, 6]);
    }
}

#[test]
fn poisoned_scope_panics_and_the_next_runs_clean() {
    let rt = runtime(1, 2, 1);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.scope(|rs| {
            rs.submit(0, 0, || panic!("kernel exploded"));
            rs.submit(0, 1, || {});
        });
    }))
    .expect_err("poisoned scope must panic");
    let msg = panic_message(err.as_ref());
    assert!(
        msg.contains("stream job panicked"),
        "unexpected panic message: {msg:?}"
    );

    // The poison belongs to the failed scope; later scopes start clean.
    for round in 0..2 {
        assert_eq!(
            stream_thread_ids(&rt).len(),
            2,
            "round {round} after poison"
        );
    }
}

#[test]
fn poison_stays_with_the_scope_whose_job_panicked() {
    // Two host threads hold concurrent scopes on one 1×2 runtime. Scope A's
    // job panics; scope B is clean and ends while A is still open. Channels
    // order the events: B ends only after A's job has panicked, and A ends
    // only after B has.
    let rt = runtime(1, 2, 1);
    let (a_panicked_tx, a_panicked_rx) = mpsc::channel::<()>();
    let (b_done_tx, b_done_rx) = mpsc::channel::<()>();
    let (a, b) = std::thread::scope(|s| {
        let rt = &rt;
        let a = s.spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.scope(|rs| {
                    // Stream 0 runs the next job only after the panicking
                    // one has unwound.
                    let (ran_tx, ran_rx) = mpsc::channel::<()>();
                    rs.submit(0, 0, || panic!("scope A's job exploded"));
                    rs.submit(0, 0, move || ran_tx.send(()).unwrap());
                    ran_rx.recv().unwrap();
                    a_panicked_tx.send(()).unwrap();
                    b_done_rx.recv().unwrap();
                });
            }))
        });
        let b = s.spawn(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.scope(|rs| {
                    rs.submit(0, 1, || {});
                    a_panicked_rx.recv().unwrap();
                });
            }));
            b_done_tx.send(()).unwrap();
            out
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    if let Err(err) = b {
        panic!(
            "clean scope B took A's poison: {:?}",
            panic_message(err.as_ref())
        );
    }
    let err = a.expect_err("scope A must report its own panicked job");
    let msg = panic_message(err.as_ref());
    assert!(msg.contains("stream job panicked"), "{msg:?}");
}

#[test]
fn block_fan_out_matches_serial_results_on_any_worker_count() {
    let want: Vec<usize> = (0..37).map(|b| b * 3 + 1).collect();
    for workers in [1, 2, 3, 8] {
        let rt = runtime(1, 1, workers);
        let (whole, tail, empty) = rt.scope(|rs| {
            let whole = rs.launch_named(0, 0, 0..37, "blocks", |b| b * 3 + 1);
            // Sub-ranges keep their global block ids.
            let tail = rs.launch_named(0, 0, 30..37, "blocks", |b| b * 3 + 1);
            let empty = rs.launch_named(0, 0, 4..4, "blocks", |b| b);
            (whole.wait(), tail.wait(), empty.wait())
        });
        assert_eq!(whole, want, "workers={workers}");
        assert_eq!(tail, want[30..], "workers={workers}");
        assert!(empty.is_empty(), "workers={workers}");
    }
}

#[test]
fn panicking_block_fails_the_wait_instead_of_hanging() {
    for workers in [1usize, 3] {
        // A watchdog thread runs the launch, so a hang fails the test by
        // timeout rather than blocking it; a hung thread is left detached.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let rt = runtime(1, 1, workers);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.scope(|rs| {
                    rs.launch_named(0, 0, 0..4, "blocks", |b| {
                        if b == 2 {
                            panic!("block exploded");
                        }
                        b
                    })
                    .wait()
                })
            }));
            let _ = tx.send(out.map_err(|err| panic_message(err.as_ref())));
        });
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Err(msg)) => assert!(
                msg.contains("kernel launch panicked"),
                "workers={workers}: unexpected panic message {msg:?}"
            ),
            Ok(Ok(out)) => panic!("workers={workers}: launch returned {out:?}"),
            Err(_) => panic!("workers={workers}: waiting on a panicked launch hung"),
        }
    }
}
