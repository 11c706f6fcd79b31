//! The streaming kernel's independent phase scans lane-major: each lane
//! drains its leftover candidates in one loop and records a candidate run
//! plus a probe trace cut into per-candidate steps. `simt::memory` then
//! rebuilds the lockstep charge from those records: `warp_load_runs` for
//! the candidate element loads, `warp_load_steps` for the probes. The
//! rewrite is only sound if it is charge-preserving. This file replays the
//! same per-lane work under four schedules and asserts bit-identical
//! counters:
//!
//! * *interleaved*, the per-step loop: per step, one `warp_load` of every
//!   live lane's candidate element, then that step's probes through
//!   `warp_load_rounds`;
//! * *hoisted*: all candidate loads first, as `warp_load_rounds` over the
//!   materialized tails, then the same per-step probe batches. Counters
//!   are additive and a lane live in round `r` was live in every earlier
//!   round, so the per-round lane sets do not change;
//! * *per-access*: the hoisted order with one `warp_load` per round;
//! * *lane-major*: runs plus step-segmented traces, in the hoisted order.
//!
//! The work is ragged: lanes with no leftover candidates, steps where a
//! lane or every lane probes nothing, and records for lanes past
//! `WARP_SIZE`, which every schedule ignores. Property tests pin the
//! sort-free distinct-line count under the charge, and
//! `warp_load_runs`' one-pass charge (sorted, merged runs) against the
//! per-round charge over random runs.

use std::ops::Range;

use gsword_simt::memory::{
    distinct_lines, warp_load, warp_load_rounds, warp_load_runs, warp_load_steps, LaneAddr, Region,
    LINE_WORDS,
};
use gsword_simt::warp::{Lanes, WARP_SIZE};
use gsword_simt::KernelCounters;
use proptest::prelude::*;

/// Lanes with records; the last eight sit past `WARP_SIZE`.
const LANES: usize = WARP_SIZE + 8;

/// The step at which no lane probes.
const DRY_STEP: usize = 5;

/// Leftover candidates of `lane`: 0 to 22 for real lanes (zero for lanes
/// 16 and 39), and more than any real lane for the ignored ones, so a
/// replay that counted them would issue extra rounds.
fn tail_len(lane: usize) -> usize {
    if lane < WARP_SIZE {
        (lane * 7 + 3) % 23
    } else {
        30
    }
}

/// First candidate element of `lane`'s run. Runs are 24 words apart, so
/// neighbouring lanes share lines.
fn run_start(lane: usize) -> usize {
    24 * lane
}

/// Probe offsets of `lane`'s `step`-th candidate: 0 to 3 probes, none at
/// [`DRY_STEP`], spread over 17 lines that lanes share.
fn probes_of(lane: usize, step: usize) -> Vec<usize> {
    let count = if step == DRY_STEP {
        0
    } else {
        (lane + step) % 4
    };
    (0..count)
        .map(|p| 4096 + LINE_WORDS * ((lane * 5 + step * 3 + p * 11) % 17) + p)
        .collect()
}

/// Rounds of the per-step loop: the longest tail among the real lanes.
fn steps() -> usize {
    (0..WARP_SIZE).map(tail_len).max().unwrap_or(0)
}

/// Every lane's probe batch of one step.
fn step_probes(step: usize) -> Vec<Vec<usize>> {
    (0..LANES)
        .map(|lane| {
            if step < tail_len(lane) {
                probes_of(lane, step)
            } else {
                Vec::new()
            }
        })
        .collect()
}

/// The per-step loop: candidate load, then probes, step by step.
fn interleaved(ctr: &mut KernelCounters) -> u64 {
    let mut tx = 0;
    for step in 0..steps() {
        let mut addrs: Lanes<LaneAddr> = [None; WARP_SIZE];
        for (lane, addr) in addrs.iter_mut().enumerate() {
            if step < tail_len(lane) {
                *addr = Some((Region::LOCAL, run_start(lane) + step));
            }
        }
        tx += warp_load(ctr, &addrs);
        tx += warp_load_rounds(ctr, &step_probes(step));
    }
    tx
}

/// Candidate loads as lockstep rounds over the tails, then per-step
/// probes.
fn hoisted(ctr: &mut KernelCounters) -> u64 {
    let tails: Vec<Vec<usize>> = (0..LANES)
        .map(|lane| (0..tail_len(lane)).map(|r| run_start(lane) + r).collect())
        .collect();
    let mut tx = warp_load_rounds(ctr, &tails);
    for step in 0..steps() {
        tx += warp_load_rounds(ctr, &step_probes(step));
    }
    tx
}

/// The hoisted order issued one `warp_load` per round: the per-access
/// loop the batched calls stand for.
fn per_access(ctr: &mut KernelCounters) -> u64 {
    let round = |ctr: &mut KernelCounters, offs: &dyn Fn(usize) -> Option<usize>| {
        let mut addrs: Lanes<LaneAddr> = [None; WARP_SIZE];
        for (lane, addr) in addrs.iter_mut().enumerate() {
            *addr = offs(lane).map(|off| (Region::LOCAL, off));
        }
        warp_load(ctr, &addrs)
    };
    let mut tx = 0;
    for r in 0..steps() {
        tx += round(ctr, &|lane| {
            (r < tail_len(lane)).then(|| run_start(lane) + r)
        });
    }
    for step in 0..steps() {
        let probes = step_probes(step);
        let rounds = probes[..WARP_SIZE].iter().map(Vec::len).max().unwrap_or(0);
        for r in 0..rounds {
            tx += round(ctr, &|lane| probes[lane].get(r).copied());
        }
    }
    tx
}

/// Each lane's whole scan recorded at once, then replayed.
fn lane_major(ctr: &mut KernelCounters) -> u64 {
    let runs: Vec<Range<usize>> = (0..LANES)
        .map(|lane| run_start(lane)..run_start(lane) + tail_len(lane))
        .collect();
    let mut offs: Vec<Vec<usize>> = vec![Vec::new(); LANES];
    let mut counts: Vec<Vec<u32>> = vec![Vec::new(); LANES];
    for lane in 0..LANES {
        for step in 0..tail_len(lane) {
            let probes = probes_of(lane, step);
            counts[lane].push(probes.len() as u32);
            offs[lane].extend(probes);
        }
    }
    warp_load_runs(ctr, &runs) + warp_load_steps(ctr, &offs, &counts)
}

type Replay = fn(&mut KernelCounters) -> u64;

fn charge(replay: Replay) -> (u64, KernelCounters) {
    let mut ctr = KernelCounters::default();
    let tx = replay(&mut ctr);
    (tx, ctr)
}

#[test]
fn lane_major_replay_equals_the_per_step_loop() {
    let (want_tx, want) = charge(interleaved);
    assert!(want.mem_instructions > 0 && want.tx_histogram[2..].iter().sum::<u64>() > 0);
    for (name, replay) in [
        ("hoisted", hoisted as Replay),
        ("per-access", per_access),
        ("lane-major", lane_major),
    ] {
        let (tx, got) = charge(replay);
        assert_eq!(tx, want_tx, "{name}: transactions");
        assert_eq!(got.snapshot(), want.snapshot(), "{name}: snapshot");
        assert_eq!(got.tx_histogram, want.tx_histogram, "{name}: histogram");
        assert_eq!(got, want, "{name}: counters");
    }
}

/// Empty records charge nothing, not even an instruction: no lanes,
/// zero-length runs, and steps in which no lane issues an access.
#[test]
fn empty_records_charge_nothing() {
    let mut ctr = KernelCounters::default();
    assert_eq!(warp_load_runs(&mut ctr, &[]), 0);
    assert_eq!(warp_load_runs(&mut ctr, &[5..5, 9..9]), 0);
    assert_eq!(warp_load_steps(&mut ctr, &[], &[]), 0);
    let offs = vec![Vec::new(); WARP_SIZE];
    let counts = vec![vec![0u32; 3]; WARP_SIZE];
    assert_eq!(warp_load_steps(&mut ctr, &offs, &counts), 0);
    assert_eq!(ctr, KernelCounters::default());
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sort-free distinct count equals `sort` + `dedup`, on arrays
    /// with repeats (values from `0..span`, often fewer than the length)
    /// and past a warp's width.
    #[test]
    fn distinct_count_matches_sort_and_dedup(
        seed in any::<u64>(),
        len in 0usize..48,
        span in 1u64..40,
    ) {
        let mut s = seed | 1;
        let lines: Vec<u64> = (0..len).map(|_| xorshift(&mut s) % span).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut scratch = lines.clone();
        let tx = distinct_lines(&mut scratch);
        prop_assert_eq!(tx, sorted.len() as u64);
        // The distinct values are left at the front in first-seen order.
        let mut first_seen: Vec<u64> = Vec::new();
        for &line in &lines {
            if !first_seen.contains(&line) {
                first_seen.push(line);
            }
        }
        prop_assert_eq!(&scratch[..first_seen.len()], &first_seen[..]);
    }

    /// The one-pass run charge equals the per-round charge over the
    /// materialized runs: return value and counters with the transaction
    /// histogram. The runs mix
    /// copies of earlier lanes' runs (as inheritance makes), runs sharing an
    /// earlier lane's start with another length, empty runs, runs starting
    /// just below a line boundary, and lanes past `WARP_SIZE`.
    #[test]
    fn run_charge_equals_the_rounds_over_materialized_runs(
        seed in any::<u64>(),
        lanes in 0usize..41,
    ) {
        let mut s = seed | 1;
        let mut runs: Vec<Range<usize>> = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let len = (xorshift(&mut s) % 40) as usize;
            let pick = (xorshift(&mut s) % lane.max(1) as u64) as usize;
            let run = match xorshift(&mut s) % 6 {
                0 | 1 if lane > 0 => runs[pick].clone(),
                2 if lane > 0 => runs[pick].start..runs[pick].start + len,
                3 => {
                    let start = (xorshift(&mut s) % 200) as usize;
                    start..start
                }
                4 => {
                    let line = 1 + (xorshift(&mut s) % 8) as usize;
                    let start = line * LINE_WORDS - 1 - (xorshift(&mut s) % 3) as usize;
                    start..start + len
                }
                _ => {
                    let start = (xorshift(&mut s) % 200) as usize;
                    start..start + len
                }
            };
            runs.push(run);
        }
        let materialized: Vec<Vec<usize>> = runs.iter().map(|run| run.clone().collect()).collect();

        let mut want = KernelCounters::default();
        let want_tx = warp_load_rounds(&mut want, &materialized);
        let mut got = KernelCounters::default();
        let tx = warp_load_runs(&mut got, &runs);
        prop_assert_eq!(tx, want_tx);
        prop_assert_eq!(got.tx_histogram, want.tx_histogram);
        prop_assert_eq!(got, want);
    }
}
