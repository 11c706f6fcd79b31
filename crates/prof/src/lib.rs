//! An Nsight-style compute profiler for the software SIMT device.
//!
//! Real CUDA ships Nsight Systems (timelines) and Nsight Compute
//! (per-kernel metrics); the runtime in `gsword-simt` has the same
//! observability gap this pair closes on hardware. Until now the workspace
//! aggregated every counter into a single modeled-time number — there was
//! no way to see *where* a launch spends its budget, per stream or per
//! phase. This crate is the measurement layer:
//!
//! * **timeline** — every launch, event wait, and pipeline phase becomes a
//!   [`Span`] on a [`Track`] (one per device×stream, plus a host track),
//!   exportable as Chrome `chrome://tracing` JSON ([`ProfReport::to_chrome_trace`]).
//! * **metrics** — per-kernel rows ([`KernelMetrics`]): occupancy,
//!   divergence replay share, coalescing efficiency (transactions per
//!   request), modeled vs measured wall-clock, and the inherited-vs-fetched
//!   sample ratio of the RSV optimizations.
//! * **boards** — per-(device, stream) counter totals, charged by the
//!   engine as each shard's results come back, so coalescing quality is
//!   attributable to the stream that produced the traffic.
//!
//! The handle follows the sanitizer's zero-cost idiom: [`Profiler`] is an
//! `Option<Arc<..>>` and every hook starts with an inlined `None` check, so
//! instrumented code pays one branch per hook when profiling is off. This
//! crate sits *below* `gsword-simt` (like `gsword-sanitizer`), so it speaks
//! [`CounterSnapshot`] — a plain mirror of the simulator's kernel counters —
//! rather than the simulator's own types.

pub mod json;
pub mod trace;

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Maximum spans kept with full detail; past the cap only the total keeps
/// counting (`ProfReport::spans_dropped`). Long adaptive loops stay bounded.
pub const SPAN_CAP: usize = 1 << 16;

/// What a timeline span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A kernel (or raw job) executing on a stream.
    Launch,
    /// The host blocking until a launch's shards are back.
    EventWait,
    /// A pipeline phase (batch windows, grace windows, …).
    Phase,
}

impl SpanKind {
    /// Chrome-trace category string.
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Launch => "launch",
            SpanKind::EventWait => "wait",
            SpanKind::Phase => "phase",
        }
    }
}

/// The timeline row a span lands on: one per device×stream, plus a host
/// row for waits and pipeline phases (which would otherwise overlap the
/// serialized launch spans of a stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Stream `stream` of device `device`.
    Stream { device: u32, stream: u32 },
    /// Intra-kernel sim worker `worker` driving blocks of one launch on
    /// `stream` of `device`. Worker rows are observability only: device
    /// makespans are still derived from the stream tracks (the stream's
    /// launch span already covers its workers), but worker spans obey the
    /// same non-overlap invariant — launches on a stream are serialized
    /// and a worker slot runs on one host thread per launch.
    Worker {
        device: u32,
        stream: u32,
        worker: u32,
    },
    /// The host-side row.
    Host,
}

/// One closed interval on the timeline, in microseconds since the
/// profiler was attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub track: Track,
    pub kind: SpanKind,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    fn sort_key(&self) -> (Track, u64, u64, SpanKind, String) {
        (
            self.track,
            self.start_us,
            self.end_us,
            self.kind,
            self.name.clone(),
        )
    }
}

/// A plain mirror of the simulator's `KernelCounters` scalars — the inputs
/// every profiler metric derives from. (`gsword-simt` converts; this crate
/// sits below it and cannot import the original.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Warp-level ALU/control instructions issued.
    pub alu_instructions: u64,
    /// Warp-level memory instructions issued (the "requests").
    pub mem_instructions: u64,
    /// 128-byte line transactions the requests generated.
    pub mem_transactions: u64,
    /// Lane-level useful operations (active lanes summed over instructions).
    pub active_lane_ops: u64,
    /// Lane slots issued (32 × instructions).
    pub issued_lane_slots: u64,
    /// Extra serialized passes caused by intra-warp branch divergence.
    pub divergent_replays: u64,
    /// Active lanes summed over memory instructions only.
    pub mem_active_lanes: u64,
}

impl CounterSnapshot {
    /// Sum another snapshot into this one.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        self.alu_instructions += other.alu_instructions;
        self.mem_instructions += other.mem_instructions;
        self.mem_transactions += other.mem_transactions;
        self.active_lane_ops += other.active_lane_ops;
        self.issued_lane_slots += other.issued_lane_slots;
        self.divergent_replays += other.divergent_replays;
        self.mem_active_lanes += other.mem_active_lanes;
    }

    /// Achieved occupancy: fraction of issued lane slots doing useful work
    /// (Nsight's "warp execution efficiency"); 1.0 for an empty snapshot.
    pub fn occupancy(&self) -> f64 {
        if self.issued_lane_slots == 0 {
            return 1.0;
        }
        self.active_lane_ops as f64 / self.issued_lane_slots as f64
    }

    /// Share of issue slots consumed by divergence replays, in [0, 1].
    pub fn divergence_replay_share(&self) -> f64 {
        let issued = self.alu_instructions + self.mem_instructions + self.divergent_replays;
        if issued == 0 {
            return 0.0;
        }
        self.divergent_replays as f64 / issued as f64
    }

    /// Coalescing efficiency as transactions per memory request — 1.0 is
    /// perfectly coalesced, 32.0 fully scattered; 0.0 with no requests.
    pub fn tx_per_request(&self) -> f64 {
        if self.mem_instructions == 0 {
            return 0.0;
        }
        self.mem_transactions as f64 / self.mem_instructions as f64
    }

    /// DRAM bytes moved per useful 4-byte word delivered to a lane (4.0 is
    /// perfect, 128.0 fully scattered); 0.0 with no memory traffic.
    pub fn bytes_per_useful_word(&self) -> f64 {
        if self.mem_active_lanes == 0 {
            return 0.0;
        }
        self.mem_transactions as f64 * 128.0 / self.mem_active_lanes as f64
    }
}

/// One row of the per-kernel metrics table, merged over every launch of
/// the kernel on the profiled runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMetrics {
    /// Kernel name, as the engine attributes it.
    pub kernel: String,
    /// Launches merged into this row.
    pub launches: u64,
    /// Merged execution counters.
    pub counters: CounterSnapshot,
    /// Summed modeled device milliseconds.
    pub modeled_ms: f64,
    /// Summed measured host wall-clock milliseconds.
    pub wall_ms: f64,
    /// Samples fetched from pools / static quotas.
    pub samples_fetched: u64,
    /// Samples started as inherited continuations (Algorithm 2).
    pub samples_inherited: u64,
}

impl KernelMetrics {
    fn new(kernel: &str) -> Self {
        KernelMetrics {
            kernel: kernel.to_string(),
            launches: 0,
            counters: CounterSnapshot::default(),
            modeled_ms: 0.0,
            wall_ms: 0.0,
            samples_fetched: 0,
            samples_inherited: 0,
        }
    }

    /// Inherited share of collected samples, in [0, 1] (the RSV
    /// inheritance ratio); 0.0 when nothing was collected.
    pub fn inherited_ratio(&self) -> f64 {
        let total = self.samples_fetched + self.samples_inherited;
        if total == 0 {
            return 0.0;
        }
        self.samples_inherited as f64 / total as f64
    }

    /// Modeled-over-measured time ratio (how much faster the modeled
    /// device is than the functional simulation); 0.0 without wall time.
    pub fn modeled_over_wall(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.modeled_ms / self.wall_ms
    }
}

/// Counter totals of the launches one stream ran, charged per shard by
/// the engine when it collects the shard's results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCounters {
    pub device: u32,
    pub stream: u32,
    pub counters: CounterSnapshot,
}

/// The assembled profile of one runtime: a deterministic-ordered timeline
/// plus the metrics tables. Plain data — construct literally in tests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfReport {
    /// Devices of the profiled runtime.
    pub num_devices: u32,
    /// Streams per device of the profiled runtime.
    pub streams_per_device: u32,
    /// Timeline spans, sorted by (track, start, end, kind, name).
    pub spans: Vec<Span>,
    /// Spans dropped past [`SPAN_CAP`].
    pub spans_dropped: u64,
    /// Per-kernel metric rows, sorted by kernel name.
    pub kernels: Vec<KernelMetrics>,
    /// Per-stream counter totals, sorted by (device, stream).
    pub streams: Vec<StreamCounters>,
    /// Incrementally tracked makespan per device (µs): the end of the last
    /// span each device's streams recorded. [`ProfReport::validate`]
    /// cross-checks this bookkeeping against the span data.
    pub device_makespan_us: Vec<u64>,
}

impl ProfReport {
    /// Max span end over one device's stream tracks, recomputed from the
    /// span data (0 for a device with no spans).
    pub fn makespan_from_spans_us(&self, device: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| matches!(s.track, Track::Stream { device: d, .. } if d == device))
            .map(|s| s.end_us)
            .max()
            .unwrap_or(0)
    }

    /// Check the structural invariants every profile must satisfy:
    /// every span has `start ≤ end`; spans on one stream or worker track
    /// never overlap (stream jobs are serialized, and a worker slot runs
    /// on one host thread per launch); and the incrementally tracked
    /// per-device makespan equals the max span end of that device's
    /// streams. Returns the first violation as an error string.
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.start_us > s.end_us {
                return Err(format!(
                    "span {:?} '{}' ends before it starts ({} > {})",
                    s.track, s.name, s.start_us, s.end_us
                ));
            }
        }
        let mut by_track: HashMap<Track, Vec<&Span>> = HashMap::new();
        for s in &self.spans {
            if matches!(s.track, Track::Stream { .. } | Track::Worker { .. }) {
                by_track.entry(s.track).or_default().push(s);
            }
        }
        // Sorted snapshot: which track's violation is reported first must
        // not depend on HashMap iteration order.
        let mut tracks: Vec<(Track, Vec<&Span>)> = by_track.into_iter().collect();
        tracks.sort_by_key(|(t, _)| *t);
        for (track, mut spans) in tracks {
            spans.sort_by_key(|s| (s.start_us, s.end_us));
            for w in spans.windows(2) {
                if w[1].start_us < w[0].end_us {
                    return Err(format!(
                        "overlapping spans on {track:?}: '{}' [{}, {}] vs '{}' [{}, {}]",
                        w[0].name,
                        w[0].start_us,
                        w[0].end_us,
                        w[1].name,
                        w[1].start_us,
                        w[1].end_us
                    ));
                }
            }
        }
        if self.spans_dropped == 0 {
            for d in 0..self.num_devices {
                let tracked = self
                    .device_makespan_us
                    .get(d as usize)
                    .copied()
                    .unwrap_or(0);
                let from_spans = self.makespan_from_spans_us(d);
                if tracked != from_spans {
                    return Err(format!(
                        "device {d} makespan bookkeeping ({tracked}µs) disagrees with \
                         span data ({from_spans}µs)"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whole-run makespan: the max over devices (concurrent silicon).
    pub fn makespan_us(&self) -> u64 {
        self.device_makespan_us.iter().copied().max().unwrap_or(0)
    }

    /// Export the timeline as Chrome `chrome://tracing` JSON (see
    /// [`trace::to_chrome_trace`]).
    pub fn to_chrome_trace(&self) -> String {
        trace::to_chrome_trace(self)
    }
}

impl fmt::Display for ProfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile: {} device(s) × {} stream(s), makespan {:.3} ms, {} span(s){}",
            self.num_devices,
            self.streams_per_device,
            self.makespan_us() as f64 / 1e3,
            self.spans.len(),
            if self.spans_dropped > 0 {
                format!(" (+{} dropped)", self.spans_dropped)
            } else {
                String::new()
            }
        )?;
        if !self.kernels.is_empty() {
            writeln!(
                f,
                "  {:<32} {:>8} {:>7} {:>7} {:>7} {:>8} {:>11} {:>9}",
                "kernel",
                "launches",
                "occup%",
                "diverg%",
                "tx/req",
                "inherit%",
                "modeled ms",
                "wall ms"
            )?;
            for k in &self.kernels {
                writeln!(
                    f,
                    "  {:<32} {:>8} {:>7.1} {:>7.1} {:>7.2} {:>8.1} {:>11.3} {:>9.1}",
                    k.kernel,
                    k.launches,
                    k.counters.occupancy() * 100.0,
                    k.counters.divergence_replay_share() * 100.0,
                    k.counters.tx_per_request(),
                    k.inherited_ratio() * 100.0,
                    k.modeled_ms,
                    k.wall_ms,
                )?;
            }
        }
        if !self.streams.is_empty() {
            write!(f, "  per-stream coalescing (tx/req):")?;
            for s in &self.streams {
                write!(
                    f,
                    " d{}.s{} {:.2}",
                    s.device,
                    s.stream,
                    s.counters.tx_per_request()
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Inner {
    t0: Instant,
    num_devices: u32,
    streams_per_device: u32,
    spans: Mutex<Vec<Span>>,
    spans_dropped: Mutex<u64>,
    track_end: Mutex<HashMap<Track, u64>>,
    kernels: Mutex<HashMap<String, KernelMetrics>>,
    streams: Mutex<HashMap<(u32, u32), CounterSnapshot>>,
}

/// The profiler handle threaded through the runtime. Cloning is cheap
/// (`Arc`); the disabled handle is a `None` and every hook is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<Inner>>,
}

impl Profiler {
    /// Attach a profiler to a runtime of `num_devices` × `streams_per_device`.
    pub fn new(num_devices: usize, streams_per_device: usize) -> Self {
        Profiler {
            inner: Some(Arc::new(Inner {
                t0: Instant::now(),
                num_devices: num_devices as u32,
                streams_per_device: streams_per_device as u32,
                spans: Mutex::new(Vec::new()),
                spans_dropped: Mutex::new(0),
                track_end: Mutex::new(HashMap::new()),
                kernels: Mutex::new(HashMap::new()),
                streams: Mutex::new(HashMap::new()),
            })),
        }
    }

    /// The disabled (zero-cost) handle — same as `Default`.
    pub fn off() -> Self {
        Profiler { inner: None }
    }

    /// Is profiling active?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the profiler was attached (0 when disabled) —
    /// capture before the work a span should cover.
    #[inline]
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(i) => i.t0.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Close a span that started at `start_us` (from [`Profiler::now_us`])
    /// and ends now.
    #[inline]
    pub fn record_span(&self, track: Track, kind: SpanKind, name: &str, start_us: u64) {
        if self.inner.is_some() {
            let end = self.now_us();
            self.record_span_at(track, kind, name, start_us, end);
        }
    }

    /// Record a span with explicit endpoints (µs since attach).
    pub fn record_span_at(
        &self,
        track: Track,
        kind: SpanKind,
        name: &str,
        start_us: u64,
        end_us: u64,
    ) {
        let Some(inner) = &self.inner else { return };
        let end_us = end_us.max(start_us);
        {
            let mut track_end = inner
                .track_end
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let e = track_end.entry(track).or_insert(0);
            *e = (*e).max(end_us);
        }
        let mut spans = inner.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() < SPAN_CAP {
            spans.push(Span {
                track,
                kind,
                name: name.to_string(),
                start_us,
                end_us,
            });
        } else {
            *inner
                .spans_dropped
                .lock()
                .unwrap_or_else(PoisonError::into_inner) += 1;
        }
    }

    /// Charge the counters one shard ran up on `(device, stream)` — the
    /// engine calls this once per shard as its results come back.
    #[inline]
    pub fn on_charge(&self, device: usize, stream: usize, counters: &CounterSnapshot) {
        let Some(inner) = &self.inner else { return };
        inner
            .streams
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry((device as u32, stream as u32))
            .or_default()
            .merge(counters);
    }

    /// Account one completed kernel run into its metrics row.
    pub fn on_kernel(
        &self,
        kernel: &str,
        counters: &CounterSnapshot,
        modeled_ms: f64,
        wall_ms: f64,
        samples_fetched: u64,
        samples_inherited: u64,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut kernels = inner.kernels.lock().unwrap_or_else(PoisonError::into_inner);
        let row = kernels
            .entry(kernel.to_string())
            .or_insert_with(|| KernelMetrics::new(kernel));
        row.launches += 1;
        row.counters.merge(counters);
        row.modeled_ms += modeled_ms;
        row.wall_ms += wall_ms;
        row.samples_fetched += samples_fetched;
        row.samples_inherited += samples_inherited;
    }

    /// Assemble the profile collected so far. Everything is sorted into a
    /// deterministic order regardless of host-thread interleaving.
    pub fn report(&self) -> ProfReport {
        let Some(inner) = &self.inner else {
            return ProfReport::default();
        };
        let mut spans = inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by_key(Span::sort_key);
        let mut kernels: Vec<KernelMetrics> = inner
            .kernels
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect();
        kernels.sort_by(|a, b| a.kernel.cmp(&b.kernel));
        let mut streams: Vec<StreamCounters> = inner
            .streams
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&(device, stream), &counters)| StreamCounters {
                device,
                stream,
                counters,
            })
            .collect();
        streams.sort_by_key(|s| (s.device, s.stream));
        let track_end = inner
            .track_end
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let device_makespan_us = (0..inner.num_devices)
            .map(|d| {
                (0..inner.streams_per_device)
                    .filter_map(|s| {
                        track_end
                            .get(&Track::Stream {
                                device: d,
                                stream: s,
                            })
                            .copied()
                    })
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        ProfReport {
            num_devices: inner.num_devices,
            streams_per_device: inner.streams_per_device,
            spans,
            spans_dropped: *inner
                .spans_dropped
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
            kernels,
            streams,
            device_makespan_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(device: u32, stream: u32) -> Track {
        Track::Stream { device, stream }
    }

    #[test]
    fn disabled_handle_is_silent() {
        let p = Profiler::off();
        assert!(!p.enabled());
        assert_eq!(p.now_us(), 0);
        p.record_span(stream(0, 0), SpanKind::Launch, "k", 0);
        p.on_charge(0, 0, &CounterSnapshot::default());
        p.on_kernel("k", &CounterSnapshot::default(), 1.0, 2.0, 3, 4);
        let r = p.report();
        assert!(r.spans.is_empty() && r.kernels.is_empty() && r.streams.is_empty());
    }

    #[test]
    fn spans_sort_deterministically() {
        let p = Profiler::new(2, 2);
        p.record_span_at(stream(1, 0), SpanKind::Launch, "b", 10, 20);
        p.record_span_at(stream(0, 1), SpanKind::Launch, "a", 5, 9);
        p.record_span_at(stream(0, 1), SpanKind::Launch, "c", 0, 4);
        let r = p.report();
        let names: Vec<&str> = r.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
        assert!(r.validate().is_ok());
        assert_eq!(r.device_makespan_us, vec![9, 20]);
        assert_eq!(r.makespan_us(), 20);
    }

    #[test]
    fn validate_flags_inverted_and_overlapping_spans() {
        let mut r = ProfReport {
            num_devices: 1,
            streams_per_device: 1,
            device_makespan_us: vec![20],
            ..ProfReport::default()
        };
        r.spans.push(Span {
            track: stream(0, 0),
            kind: SpanKind::Launch,
            name: "x".into(),
            start_us: 30,
            end_us: 10,
        });
        assert!(r.validate().unwrap_err().contains("ends before"));
        r.spans[0] = Span {
            track: stream(0, 0),
            kind: SpanKind::Launch,
            name: "x".into(),
            start_us: 0,
            end_us: 20,
        };
        r.spans.push(Span {
            track: stream(0, 0),
            kind: SpanKind::Launch,
            name: "y".into(),
            start_us: 10,
            end_us: 15,
        });
        assert!(r.validate().unwrap_err().contains("overlapping"));
    }

    #[test]
    fn worker_tracks_validate_like_streams_but_skip_makespan() {
        let worker = |w: u32| Track::Worker {
            device: 0,
            stream: 0,
            worker: w,
        };
        let mut r = ProfReport {
            num_devices: 1,
            streams_per_device: 1,
            spans: vec![
                Span {
                    track: stream(0, 0),
                    kind: SpanKind::Launch,
                    name: "k".into(),
                    start_us: 0,
                    end_us: 40,
                },
                // Concurrent workers on *different* worker tracks are fine.
                Span {
                    track: worker(0),
                    kind: SpanKind::Launch,
                    name: "k".into(),
                    start_us: 0,
                    end_us: 30,
                },
                Span {
                    track: worker(1),
                    kind: SpanKind::Launch,
                    name: "k".into(),
                    start_us: 5,
                    end_us: 35,
                },
            ],
            // Makespan derives from the stream track only.
            device_makespan_us: vec![40],
            ..ProfReport::default()
        };
        assert!(r.validate().is_ok());
        assert_eq!(r.makespan_from_spans_us(0), 40);
        // Overlap on a single worker track is a violation.
        r.spans.push(Span {
            track: worker(1),
            kind: SpanKind::Launch,
            name: "k2".into(),
            start_us: 20,
            end_us: 50,
        });
        assert!(r.validate().unwrap_err().contains("overlapping"));
    }

    #[test]
    fn validate_flags_makespan_drift() {
        let r = ProfReport {
            num_devices: 1,
            streams_per_device: 1,
            spans: vec![Span {
                track: stream(0, 0),
                kind: SpanKind::Launch,
                name: "k".into(),
                start_us: 0,
                end_us: 50,
            }],
            device_makespan_us: vec![40],
            ..ProfReport::default()
        };
        assert!(r.validate().unwrap_err().contains("makespan"));
    }

    #[test]
    fn host_spans_may_overlap() {
        let p = Profiler::new(1, 1);
        p.record_span_at(Track::Host, SpanKind::Phase, "batch 0", 0, 100);
        p.record_span_at(Track::Host, SpanKind::EventWait, "wait", 10, 90);
        assert!(p.report().validate().is_ok());
    }

    #[test]
    fn kernel_rows_merge_by_name() {
        let p = Profiler::new(1, 1);
        let c = CounterSnapshot {
            alu_instructions: 10,
            active_lane_ops: 160,
            issued_lane_slots: 320,
            ..CounterSnapshot::default()
        };
        p.on_kernel("rsv", &c, 1.0, 4.0, 100, 20);
        p.on_kernel("rsv", &c, 2.0, 4.0, 100, 60);
        p.on_kernel("base", &c, 5.0, 5.0, 10, 0);
        let r = p.report();
        assert_eq!(r.kernels.len(), 2);
        assert_eq!(r.kernels[0].kernel, "base");
        let rsv = &r.kernels[1];
        assert_eq!(rsv.launches, 2);
        assert_eq!(rsv.counters.alu_instructions, 20);
        assert!((rsv.modeled_ms - 3.0).abs() < 1e-12);
        assert!((rsv.inherited_ratio() - 80.0 / 280.0).abs() < 1e-12);
        assert!((rsv.counters.occupancy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stream_boards_accumulate_per_slot() {
        let p = Profiler::new(2, 2);
        let c = CounterSnapshot {
            mem_instructions: 2,
            mem_transactions: 10,
            ..CounterSnapshot::default()
        };
        p.on_charge(1, 0, &c);
        p.on_charge(1, 0, &c);
        p.on_charge(0, 1, &c);
        let r = p.report();
        assert_eq!(r.streams.len(), 2);
        assert_eq!((r.streams[0].device, r.streams[0].stream), (0, 1));
        assert_eq!(r.streams[1].counters.mem_transactions, 20);
        assert!((r.streams[0].counters.tx_per_request() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_metrics_handle_empty_inputs() {
        let c = CounterSnapshot::default();
        assert_eq!(c.occupancy(), 1.0);
        assert_eq!(c.divergence_replay_share(), 0.0);
        assert_eq!(c.tx_per_request(), 0.0);
        assert_eq!(c.bytes_per_useful_word(), 0.0);
    }

    #[test]
    fn span_cap_counts_drops() {
        let p = Profiler::new(1, 1);
        for i in 0..(SPAN_CAP + 5) as u64 {
            p.record_span_at(stream(0, 0), SpanKind::Launch, "k", i * 2, i * 2 + 1);
        }
        let r = p.report();
        assert_eq!(r.spans.len(), SPAN_CAP);
        assert_eq!(r.spans_dropped, 5);
    }

    #[test]
    fn display_renders_table() {
        let p = Profiler::new(1, 2);
        let c = CounterSnapshot {
            mem_instructions: 4,
            mem_transactions: 12,
            issued_lane_slots: 128,
            active_lane_ops: 96,
            ..CounterSnapshot::default()
        };
        p.on_kernel("rsv_sample-sync", &c, 0.5, 1.0, 900, 100);
        p.on_charge(0, 0, &c);
        p.record_span_at(stream(0, 0), SpanKind::Launch, "rsv_sample-sync", 0, 1500);
        let text = format!("{}", p.report());
        assert!(text.contains("rsv_sample-sync"), "{text}");
        assert!(text.contains("tx/req"), "{text}");
        assert!(text.contains("d0.s0 3.00"), "{text}");
        assert!(text.contains("makespan 1.500 ms"), "{text}");
    }
}
