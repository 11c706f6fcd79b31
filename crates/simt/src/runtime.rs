//! The device runtime: N devices and per-device streams.
//!
//! The paper evaluates gSWORD on two RTX 2080 Ti GPUs; this module is the
//! CUDA-runtime analogue that lets the workspace target that shape. A
//! [`Runtime`] owns a fixed set of [`Device`]s. Work is submitted to
//! *streams* — ordered asynchronous launch queues, mirroring
//! `cudaStream_t`. A launch hands its per-block results back through its
//! [`LaunchHandle`], whose `wait` is how completion is observed; the
//! runtime keeps no counters of its own — whoever collects the results
//! attributes them to devices and streams.
//!
//! A `Runtime` owns no threads. [`Runtime::scope`] opens a
//! `std::thread::scope` with one thread per (device, stream), each running
//! its stream's jobs in submission order, and joins them all before it
//! returns — so launch closures may borrow stack data (query contexts,
//! estimators) with no `'static` bound. A launch with more than one sim
//! worker fans its blocks over a `std::thread::scope` of its own. Every
//! caller in the workspace opens one scope per run, so a run spawns its
//! stream threads once.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use crate::device::{Device, DeviceConfig};
use gsword_prof::{Profiler, SpanKind, Track};
use gsword_sanitizer::{Sanitizer, SanitizerReport};

/// Runtime topology: how many devices, how many streams on each, and the
/// launch geometry every device shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Simulated GPUs (the paper's testbed has 2).
    pub num_devices: usize,
    /// Ordered launch queues per device.
    pub streams_per_device: usize,
    /// Per-device launch geometry.
    pub device: DeviceConfig,
    /// Intra-kernel block workers: how many host threads one launch fans
    /// its grid's blocks across. `0` = auto (the host's available
    /// parallelism), `1` = serial in-stream execution, `n` = the stream's
    /// thread plus `n − 1` helpers spawned for the launch. Functional
    /// results, counters, and sanitizer verdicts are bit-identical for
    /// every value (results merge in fixed block order; the sanitizer's
    /// detail cap is block-keyed), so this knob trades wall-clock only.
    pub sim_workers: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            num_devices: 1,
            streams_per_device: 1,
            device: DeviceConfig::default(),
            sim_workers: 0,
        }
    }
}

/// Result channel of an asynchronous launch: the launch job sends its
/// per-block outputs once every block has run.
pub struct LaunchHandle<R> {
    rx: mpsc::Receiver<Vec<R>>,
}

impl<R> LaunchHandle<R> {
    /// Block until the launch finishes and take its per-block results
    /// (in block order). Panics with "kernel launch panicked" when a block
    /// of the launch panicked: the job unwinds without sending, and its
    /// dropped sender ends the wait.
    pub fn wait(self) -> Vec<R> {
        self.rx.recv().expect("kernel launch panicked")
    }
}

/// The device runtime: owns the devices and the profiler — but no
/// threads. Streams exist, and accept work, only inside
/// [`Runtime::scope`].
pub struct Runtime {
    devices: Vec<Device>,
    streams_per_device: usize,
    /// Timeline/metrics recorder (the disabled handle when not profiling).
    profiler: Profiler,
    /// Resolved intra-kernel worker count ([`RuntimeConfig::sim_workers`]
    /// with `0` replaced by the host's available parallelism).
    sim_workers: usize,
}

impl Runtime {
    /// Build a runtime with no sanitizers attached.
    pub fn new(config: RuntimeConfig) -> Self {
        Self::with_instrumentation(config, |_| Sanitizer::off(), Profiler::off())
    }

    /// Build a fully instrumented runtime: a per-device sanitizer instance
    /// produced by `make(device_index)` — the multi-GPU analogue of
    /// attaching `compute-sanitizer` to every device in the rig — plus a
    /// profiler recording the launch timeline (the Nsight analogue; pass
    /// [`Profiler::off`] when not profiling).
    pub fn with_instrumentation(
        config: RuntimeConfig,
        mut make: impl FnMut(usize) -> Sanitizer,
        profiler: Profiler,
    ) -> Self {
        assert!(config.num_devices > 0, "runtime needs at least one device");
        assert!(config.streams_per_device > 0, "each device needs a stream");
        let devices = (0..config.num_devices)
            .map(|d| Device::with_sanitizer(config.device, make(d)))
            .collect::<Vec<_>>();
        let sim_workers = match config.sim_workers {
            0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
            n => n,
        };
        Runtime {
            devices,
            streams_per_device: config.streams_per_device,
            profiler,
            sim_workers,
        }
    }

    /// Resolved intra-kernel worker count (`1` = serial block execution).
    pub fn sim_workers(&self) -> usize {
        self.sim_workers
    }

    /// Number of devices in the runtime.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Streams per device.
    pub fn streams_per_device(&self) -> usize {
        self.streams_per_device
    }

    /// Device `d`.
    pub fn device(&self, d: usize) -> &Device {
        &self.devices[d]
    }

    /// The runtime's profiler handle (disabled unless built with
    /// [`Runtime::with_instrumentation`]).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Whether any device carries an enabled sanitizer.
    pub fn sanitizing(&self) -> bool {
        self.devices.iter().any(|d| d.sanitizer.enabled())
    }

    /// Merged sanitizer findings across all devices (empty report when no
    /// device sanitizes).
    pub fn sanitizer_report(&self) -> SanitizerReport {
        let mut out = SanitizerReport::default();
        for d in &self.devices {
            if d.sanitizer.enabled() {
                out.merge(&d.sanitizer.report());
            }
        }
        out
    }

    /// Run `f` with live streams: one scoped thread per (device, stream)
    /// runs that stream's jobs in submission order. Jobs may borrow
    /// anything that outlives the runtime borrow (`'env`). Every stream
    /// drains and its thread is joined before `scope` returns, on the
    /// unwind path too. A job that panicked poisons this scope alone: it
    /// re-panics here once the streams have drained.
    pub fn scope<'env, T>(&'env self, f: impl FnOnce(&RuntimeScope<'env>) -> T) -> T {
        let poisoned = AtomicBool::new(false);
        let out = std::thread::scope(|s| {
            let streams = (0..self.devices.len() * self.streams_per_device)
                .map(|_| {
                    let (tx, rx) = mpsc::channel::<Job<'env>>();
                    let poisoned = &poisoned;
                    s.spawn(move || {
                        for job in rx {
                            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                poisoned.store(true, Ordering::Relaxed);
                            }
                        }
                    });
                    tx
                })
                .collect();
            // Dropping `rs` when `f` returns (or unwinds) closes every
            // stream; each thread finishes its queue and exits, and
            // `std::thread::scope` joins them.
            let rs = RuntimeScope {
                runtime: self,
                streams,
            };
            f(&rs)
        });
        // The join above orders every job's store before this load.
        if poisoned.load(Ordering::Relaxed) {
            panic!("a stream job panicked inside Runtime::scope");
        }
        out
    }

    /// Run one launch's blocks and return their results in ascending block
    /// order. With more than one sim worker, the calling stream thread and
    /// `min(sim_workers, blocks) − 1` scoped helpers claim block ids from a
    /// shared cursor and each writes only the slots of the blocks it ran,
    /// so which thread ran a block never changes what the launch returns.
    /// Every thread that ran a block records one [`Track::Worker`] span.
    fn fan_out<R, F>(
        &self,
        device: usize,
        stream: usize,
        blocks: Range<usize>,
        name: &str,
        body: &F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.sim_workers.min(blocks.len());
        if workers <= 1 {
            return blocks.map(body).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = blocks.clone().map(|_| Mutex::new(None)).collect();
        let participate = |worker: usize| {
            let start = self.profiler.now_us();
            let mut ran = false;
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let out = body(blocks.start + i);
                *slot.lock().expect("block slot") = Some(out);
                ran = true;
            }
            if ran {
                let track = Track::Worker {
                    device: device as u32,
                    stream: stream as u32,
                    worker: worker as u32,
                };
                self.profiler
                    .record_span(track, SpanKind::Launch, name, start);
            }
        };
        std::thread::scope(|s| {
            for worker in 1..workers {
                let participate = &participate;
                s.spawn(move || participate(worker));
            }
            participate(0);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("block slot")
                    .expect("every block ran")
            })
            .collect()
    }
}

type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Live streams of a [`Runtime::scope`] call: the submission surface.
/// `streams[device * streams_per_device + stream]` feeds the scoped thread
/// that runs that stream's jobs.
pub struct RuntimeScope<'env> {
    runtime: &'env Runtime,
    streams: Vec<mpsc::Sender<Job<'env>>>,
}

impl<'env> RuntimeScope<'env> {
    /// The runtime the streams belong to.
    pub fn runtime(&self) -> &'env Runtime {
        self.runtime
    }

    fn stream_index(&self, device: usize, stream: usize) -> usize {
        assert!(device < self.runtime.num_devices(), "device out of range");
        assert!(
            stream < self.runtime.streams_per_device,
            "stream out of range"
        );
        device * self.runtime.streams_per_device + stream
    }

    /// Submit a raw job to `(device, stream)`; jobs on one stream run in
    /// submission order, different streams run concurrently.
    pub fn submit(&self, device: usize, stream: usize, job: impl FnOnce() + Send + 'env) {
        let idx = self.stream_index(device, stream);
        self.streams[idx]
            .send(Box::new(job))
            .expect("stream thread alive inside scope");
    }

    /// Asynchronously launch `body` over the global block ids in `blocks`
    /// on `(device, stream)`. Returns immediately; the handle's `wait`
    /// returns once the launch completes. Per-block results come back in
    /// ascending block order for every sim-worker count. `name` labels the
    /// launch's span on the profiler timeline (and is ignored when the
    /// runtime is not profiling).
    pub fn launch_named<R, F>(
        &self,
        device: usize,
        stream: usize,
        blocks: Range<usize>,
        name: &str,
        body: F,
    ) -> LaunchHandle<R>
    where
        R: Send + 'env,
        F: Fn(usize) -> R + Send + Sync + 'env,
    {
        let rt: &'env Runtime = self.runtime;
        let name = name.to_string();
        let (tx, rx) = mpsc::channel();
        self.submit(device, stream, move || {
            let start = rt.profiler.now_us();
            let out = rt.fan_out(device, stream, blocks, &name, &body);
            let track = Track::Stream {
                device: device as u32,
                stream: stream as u32,
            };
            rt.profiler
                .record_span(track, SpanKind::Launch, &name, start);
            // A handle dropped unwaited leaves no receiver; its results
            // are unwanted.
            let _ = tx.send(out);
        });
        LaunchHandle { rx }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(num_devices: usize, streams: usize) -> Runtime {
        Runtime::new(RuntimeConfig {
            num_devices,
            streams_per_device: streams,
            device: DeviceConfig {
                num_blocks: 4,
                threads_per_block: 32,
            },
            sim_workers: 1,
        })
    }

    #[test]
    fn launch_returns_blocks_in_order() {
        let rt = tiny(2, 2);
        let out = rt.scope(|rs| {
            let h = rs.launch_named(1, 1, 0..4, "kernel", |b| b * 10);
            h.wait()
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn launch_accepts_global_block_ranges() {
        let rt = tiny(2, 1);
        let (a, b) = rt.scope(|rs| {
            let lo = rs.launch_named(0, 0, 0..2, "kernel", |b| b);
            let hi = rs.launch_named(1, 0, 2..4, "kernel", |b| b);
            (lo.wait(), hi.wait())
        });
        assert_eq!(a, vec![0, 1]);
        assert_eq!(b, vec![2, 3]);
    }

    #[test]
    fn stream_jobs_run_in_submission_order() {
        let rt = tiny(1, 1);
        let log = Mutex::new(Vec::new());
        rt.scope(|rs| {
            for i in 0..8 {
                let log = &log;
                rs.submit(0, 0, move || log.lock().unwrap().push(i));
            }
        });
        // The scope drains every stream before it returns.
        assert_eq!(log.into_inner().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn profiled_runtime_records_launch_spans() {
        let rt = Runtime::with_instrumentation(
            RuntimeConfig {
                num_devices: 2,
                streams_per_device: 2,
                device: DeviceConfig {
                    num_blocks: 2,
                    threads_per_block: 32,
                },
                sim_workers: 1,
            },
            |_| Sanitizer::off(),
            Profiler::new(2, 2),
        );
        rt.scope(|rs| {
            let mut handles = Vec::new();
            for d in 0..2 {
                for s in 0..2 {
                    handles.push(rs.launch_named(d, s, 0..2, "tiny", |b| b));
                }
            }
            for h in handles {
                h.wait();
            }
        });
        let report = rt.profiler().report();
        report.validate().expect("live profile is well-formed");
        assert_eq!(report.spans.len(), 4);
        assert!(report.spans.iter().all(|s| s.name == "tiny"));
        // Counters are attributed by whoever collects the results, not by
        // the runtime.
        assert!(report.streams.is_empty());
    }

    #[test]
    fn unprofiled_launch_records_nothing() {
        let rt = tiny(1, 1);
        rt.scope(|rs| {
            rs.launch_named(0, 0, 0..4, "kernel", |b| b).wait();
        });
        assert!(!rt.profiler().enabled());
        assert_eq!(rt.profiler().report(), gsword_prof::ProfReport::default());
    }

    #[test]
    #[should_panic(expected = "stream job panicked")]
    fn stream_panic_poisons_the_scope() {
        let rt = tiny(1, 1);
        rt.scope(|rs| {
            rs.submit(0, 0, || panic!("kernel exploded"));
        });
    }

    fn with_workers(workers: usize, blocks: usize) -> Runtime {
        Runtime::new(RuntimeConfig {
            num_devices: 1,
            streams_per_device: 1,
            device: DeviceConfig {
                num_blocks: blocks,
                threads_per_block: 32,
            },
            sim_workers: workers,
        })
    }

    #[test]
    fn sim_workers_auto_resolves_to_available_parallelism() {
        let host = std::thread::available_parallelism().map_or(4, |n| n.get());
        assert_eq!(with_workers(0, 4).sim_workers(), host);
        assert_eq!(with_workers(1, 4).sim_workers(), 1);
        assert_eq!(with_workers(8, 4).sim_workers(), 8);
    }

    #[test]
    fn parallel_launches_repeat_across_scopes() {
        let rt = with_workers(4, 16);
        for _ in 0..3 {
            let (a, b) = rt.scope(|rs| {
                let a = rs.launch_named(0, 0, 0..16, "kernel", |b| b);
                let b = rs.launch_named(0, 0, 4..12, "kernel", |b| b * 2);
                (a.wait(), b.wait())
            });
            assert_eq!(a, (0..16).collect::<Vec<_>>());
            assert_eq!(b, (4..12).map(|b| b * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_launch_records_worker_spans() {
        let rt = Runtime::with_instrumentation(
            RuntimeConfig {
                num_devices: 1,
                streams_per_device: 1,
                device: DeviceConfig {
                    num_blocks: 8,
                    threads_per_block: 32,
                },
                sim_workers: 4,
            },
            |_| Sanitizer::off(),
            Profiler::new(1, 1),
        );
        rt.scope(|rs| {
            rs.launch_named(0, 0, 0..8, "par", |b| b).wait();
        });
        let report = rt.profiler().report();
        report.validate().expect("worker tracks stay well-formed");
        let stream_spans = report
            .spans
            .iter()
            .filter(|s| matches!(s.track, Track::Stream { .. }))
            .count();
        let worker_spans = report
            .spans
            .iter()
            .filter(|s| matches!(s.track, Track::Worker { .. }))
            .count();
        assert_eq!(stream_spans, 1);
        assert!(
            (1..=4).contains(&worker_spans),
            "every participating worker records exactly one span, got {worker_spans}"
        );
    }

    #[test]
    #[should_panic(expected = "stream job panicked")]
    fn parallel_block_panic_poisons_the_scope() {
        let rt = with_workers(4, 8);
        rt.scope(|rs| {
            // The handle is never waited on: the scope's end surfaces the
            // poison by itself.
            let _h = rs.launch_named(0, 0, 0..8, "kernel", |b| {
                if b == 5 {
                    panic!("block exploded");
                }
                b
            });
        });
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn rejects_zero_devices() {
        Runtime::new(RuntimeConfig {
            num_devices: 0,
            ..RuntimeConfig::default()
        });
    }
}
