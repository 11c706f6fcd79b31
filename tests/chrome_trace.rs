//! Golden snapshot of the Chrome `chrome://tracing` export.
//!
//! The export is deterministic by construction (sorted spans, fixed
//! metadata order, integer microseconds), so a byte-for-byte snapshot is
//! the right test: any formatting drift — which would silently break
//! saved traces or downstream tooling — shows up as a diff against
//! `tests/fixtures/chrome_trace_2x2.json`.
//!
//! Regenerate after an intentional format change with
//! `GSWORD_REGEN_FIXTURES=1 cargo test --test chrome_trace` and review the
//! fixture diff like any other code change.

use gsword::prelude::*;
use gsword::simt::prof::json::validate_chrome_trace;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/chrome_trace_2x2.json"
);

/// A fixed 2-device × 2-stream report with launches on every stream
/// track, host wait/phase spans, and a name that needs JSON escaping.
fn golden_report() -> ProfReport {
    let launch = |device, stream, name: &str, start_us, end_us| Span {
        track: Track::Stream { device, stream },
        kind: SpanKind::Launch,
        name: name.into(),
        start_us,
        end_us,
    };
    let host = |kind, name: &str, start_us, end_us| Span {
        track: Track::Host,
        kind,
        name: name.into(),
        start_us,
        end_us,
    };
    ProfReport {
        num_devices: 2,
        streams_per_device: 2,
        spans: vec![
            launch(0, 0, "wj_sample", 0, 120),
            launch(0, 0, "wj_sample", 130, 260),
            launch(0, 1, "alley_sample", 10, 180),
            launch(1, 0, "wj_sample", 5, 140),
            launch(1, 1, "alley_sample", 20, 210),
            host(SpanKind::EventWait, "wait wj_sample", 0, 270),
            host(SpanKind::Phase, "batch \"0\"", 270, 300),
        ],
        device_makespan_us: vec![260, 210],
        ..ProfReport::default()
    }
}

#[test]
fn golden_trace_matches_fixture() {
    let report = golden_report();
    report.validate().expect("golden report must be valid");
    let json = report.to_chrome_trace();
    if std::env::var_os("GSWORD_REGEN_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &json).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("missing fixture — run GSWORD_REGEN_FIXTURES=1 cargo test --test chrome_trace");
    assert_eq!(
        json, want,
        "chrome trace export drifted from tests/fixtures/chrome_trace_2x2.json; \
         if intentional, regenerate with GSWORD_REGEN_FIXTURES=1"
    );
}

/// The fixture itself must be a valid trace declaring one track per
/// device×stream plus the host track.
#[test]
fn golden_fixture_is_a_valid_trace() {
    let json = std::fs::read_to_string(FIXTURE).expect("fixture present");
    let summary = validate_chrome_trace(&json).expect("fixture parses");
    assert_eq!(summary.stream_tracks, 4, "one track per device×stream");
    assert!(summary.host_track);
    assert_eq!(summary.complete_events, golden_report().spans.len());
}

/// End to end: a real profiled 2×2 engine run exports a trace with one
/// track per device×stream (the topology of the CI profile smoke).
#[test]
fn live_two_by_two_run_exports_all_tracks() {
    let data = gsword::graph::gen::erdos_renyi(24, 130, vec![0; 24], 0xD5EA);
    let query = QueryGraph::new(vec![0; 3], &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let r = Gsword::builder(&data, &query)
        .samples(2_000)
        .seed(7)
        .num_devices(2)
        .streams_per_device(2)
        .profile(true)
        .run()
        .expect("profiled run");
    let prof = r.prof.expect("profile report attached");
    prof.validate().expect("live report valid");
    let summary = validate_chrome_trace(&prof.to_chrome_trace()).expect("live trace parses");
    assert_eq!(summary.stream_tracks, 4);
    assert!(summary.host_track);
    assert_eq!(summary.complete_events, prof.spans.len());
}
