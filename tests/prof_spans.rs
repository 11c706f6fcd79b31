//! Property tests for the profiler's timeline invariants.
//!
//! Whatever work lands on whatever topology, a live profile must be
//! well-formed: every span ends at or after its start, spans on one
//! stream track never overlap (stream jobs are serialized by
//! construction), and the per-device makespan bookkeeping agrees with the
//! span data. `ProfReport::validate` checks exactly these; here random
//! workloads on random topologies up to 4×4 exercise it, and corrupted
//! reports prove it actually rejects.

use gsword::prelude::*;
use gsword::simt::Sanitizer;
use proptest::prelude::*;

fn tiny_grid() -> DeviceConfig {
    DeviceConfig {
        num_blocks: 2,
        threads_per_block: 32,
    }
}

/// Expand a generated seed into a job list (the vendored proptest has no
/// collection strategies; a derived stream keeps cases replayable).
fn jobs_from(seed: u64, n: usize) -> Vec<(usize, usize, usize)> {
    let mut rng = proptest::TestRng::new(seed);
    (0..n)
        .map(|_| {
            let w = rng.next_u64();
            (
                (w & 0xF) as usize,
                ((w >> 4) & 0xF) as usize,
                ((w >> 8) % 3) as usize,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random launches + host spans on a random topology ⇒ valid report.
    #[test]
    fn live_profiles_are_well_formed(
        devices in 1usize..5,
        streams in 1usize..5,
        njobs in 0usize..24,
        jobs_seed in any::<u64>(),
        host_phases in 0usize..4,
    ) {
        let jobs = jobs_from(jobs_seed, njobs);
        let rt = Runtime::with_instrumentation(
            RuntimeConfig {
                num_devices: devices,
                streams_per_device: streams,
                device: tiny_grid(),
                sim_workers: 1,
            },
            |_| Sanitizer::off(),
            Profiler::new(devices, streams),
        );
        rt.scope(|rs| {
            let names = ["wj", "alley", "baseline"];
            let handles: Vec<_> = jobs
                .iter()
                .map(|&(d, s, n)| {
                    rs.launch_named(d % devices, s % streams, 0..2, names[n], move |b| b + n)
                })
                .collect();
            for h in handles {
                h.wait();
            }
        });
        for p in 0..host_phases {
            let start = rt.profiler().now_us();
            rt.profiler().record_span(
                Track::Host,
                SpanKind::Phase,
                &format!("phase {p}"),
                start,
            );
        }
        let report = rt.profiler().report();
        report.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(report.num_devices as usize, devices);
        prop_assert_eq!(report.streams_per_device as usize, streams);
        prop_assert_eq!(report.spans.len(), jobs.len() + host_phases);
        // Deterministic ordering: sorted by (track, start, end, ...).
        for w in report.spans.windows(2) {
            prop_assert!(
                (w[0].track, w[0].start_us, w[0].end_us)
                    <= (w[1].track, w[1].start_us, w[1].end_us)
            );
        }
        // The Chrome export of any valid report must parse and declare
        // every device×stream track.
        let summary = gsword::simt::prof::json::validate_chrome_trace(
            &report.to_chrome_trace(),
        )
        .map_err(TestCaseError::fail)?;
        prop_assert_eq!(summary.stream_tracks, devices * streams);
        prop_assert!(summary.host_track);
        prop_assert_eq!(summary.complete_events, report.spans.len());
    }

    /// Synthetic serialized spans on random tracks ⇒ valid; corrupting the
    /// result (inverted interval, stream overlap, makespan drift) ⇒ invalid.
    #[test]
    fn validate_rejects_corrupted_reports(
        devices in 1usize..5,
        streams in 1usize..5,
        nspans in 1usize..20,
        spans_seed in any::<u64>(),
    ) {
        let p = Profiler::new(devices, streams);
        let mut rng = proptest::TestRng::new(spans_seed);
        let mut cursor = vec![0u64; devices * streams];
        for _ in 0..nspans {
            let w = rng.next_u64();
            let (d, s) = ((w & 0xF) as usize % devices, ((w >> 4) & 0xF) as usize % streams);
            let len = 1 + ((w >> 8) % 50);
            let gap = (w >> 16) % 10;
            let slot = d * streams + s;
            let start = cursor[slot] + gap;
            p.record_span_at(
                Track::Stream { device: d as u32, stream: s as u32 },
                SpanKind::Launch,
                "k",
                start,
                start + len,
            );
            cursor[slot] = start + len;
        }
        let good = p.report();
        good.validate().map_err(TestCaseError::fail)?;

        // Inverted interval.
        let mut bad = good.clone();
        let mut s = bad.spans[0].clone();
        s.start_us = s.end_us + 1;
        bad.spans[0] = s;
        prop_assert!(bad.validate().is_err());

        // Overlapping clone of an existing stream span (widened so zero-
        // length spans still collide).
        let mut bad = good.clone();
        let mut dup = bad.spans[0].clone();
        dup.end_us += 2;
        dup.name = "overlap".into();
        bad.spans.push(dup);
        prop_assert!(bad.validate().is_err());

        // Makespan bookkeeping drift.
        let mut bad = good.clone();
        let d = match bad.spans[0].track {
            Track::Stream { device, .. } => device as usize,
            Track::Host | Track::Worker { .. } => {
                unreachable!("only stream spans recorded")
            }
        };
        bad.device_makespan_us[d] += 1;
        prop_assert!(bad.validate().is_err());
    }
}
