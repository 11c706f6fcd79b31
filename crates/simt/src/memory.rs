//! The coalescing memory model.
//!
//! When a warp issues a load, the 32 lane addresses are grouped into
//! 128-byte line transactions. If all lanes read consecutive elements of
//! one array the warp pays ~4 transactions; if each lane reads a different
//! region the warp pays up to 32. This difference is exactly the paper's
//! explanation (Example 4, Figures 5–6) for why iteration synchronization
//! loses to sample synchronization despite better instruction-level
//! parallelism.
//!
//! The model is a pure charge: it prices accesses and never sees their
//! values, and no function here takes a sanitizer handle. Kernels only
//! read device memory the host initialized (and advance the sample pool
//! with an atomic), so there is nothing for a memory checker to observe
//! (DESIGN.md §7).

use std::ops::Range;

use crate::counters::KernelCounters;
use crate::warp::{Lanes, WarpMask, WARP_SIZE};

/// Words (4-byte elements) per 128-byte line.
pub const LINE_WORDS: usize = 32;

/// A distinct array/address-space a lane address can point into. The
/// candidate graph's arrays live in different regions; a single
/// transaction never spans regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region(pub u32);

impl Region {
    /// Global candidate array of the candidate graph.
    pub const GLOBAL: Region = Region(0);
    /// Local candidate lists (third CSR).
    pub const LOCAL: Region = Region(2);
}

/// One lane's address for a warp-wide load: a `(region, element offset)`
/// pair, or `None` when the lane is inactive for this load.
pub type LaneAddr = Option<(Region, usize)>;

/// Issue a warp-wide load of one element per lane at each lane's address,
/// and charge the coalesced transaction count.
///
/// Returns the number of line transactions generated (useful for tests).
pub fn warp_load(ctr: &mut KernelCounters, addrs: &Lanes<LaneAddr>) -> u64 {
    let mut lines = [0u64; WARP_SIZE];
    let mut n = 0usize;
    for (region, off) in addrs.iter().flatten() {
        lines[n] = ((region.0 as u64) << 48) | (off / LINE_WORDS) as u64;
        n += 1;
    }
    let tx = distinct_lines(&mut lines[..n]);
    ctr.warp_load(n as u32, tx);
    tx
}

/// Issue one lockstep round of a warp-wide load into one region: `offs`
/// yields the element offset of every lane that loads this round, in lane
/// order, and at most the first [`WARP_SIZE`] are taken.
///
/// This is the per-round core of [`warp_load_rounds`] and
/// [`warp_load_steps`]. All lanes read one region, so the line index
/// alone tells lines apart; the offsets are read once, with no per-lane
/// address array and no sort. The charge equals one [`warp_load`] of the
/// same lanes. Returns the transaction count.
pub fn warp_load_round(ctr: &mut KernelCounters, offs: impl IntoIterator<Item = usize>) -> u64 {
    let mut lines = [0u64; WARP_SIZE];
    let mut n = 0;
    for off in offs.into_iter().take(WARP_SIZE) {
        lines[n] = (off / LINE_WORDS) as u64;
        n += 1;
    }
    let tx = distinct_lines(&mut lines[..n]);
    ctr.warp_load(n as u32, tx);
    tx
}

/// Issue the whole per-lane access sequence of one lockstep round as a
/// series of warp-wide loads into one region, one load per probe step.
///
/// `lane_offs[lane]` holds lane `lane`'s element offsets in probe order;
/// round `r` loads the `r`-th offset of every lane that has one. The
/// charge sequence — including the `mem_instructions` bump of rounds
/// where some lanes have run dry — is bit-identical to issuing the same
/// [`warp_load`] calls one by one.
///
/// Lanes beyond [`WARP_SIZE`] are ignored. Returns the total transaction
/// count across all rounds.
pub fn warp_load_rounds(ctr: &mut KernelCounters, lane_offs: &[Vec<usize>]) -> u64 {
    let lane_offs = &lane_offs[..lane_offs.len().min(WARP_SIZE)];
    let rounds = lane_offs.iter().map(Vec::len).max().unwrap_or(0);
    let mut total = 0;
    for r in 0..rounds {
        let offs = lane_offs.iter().filter_map(|offs| offs.get(r).copied());
        total += warp_load_round(ctr, offs);
    }
    total
}

/// Issue per-lane runs of consecutive elements as lockstep rounds: lane
/// `l` reads `runs[l].start + r` in round `r` while `r < runs[l].len()`.
///
/// The charge equals [`warp_load_rounds`] over the materialized runs,
/// without building them: a warp in which every lane walks its own array
/// one element per step. The non-empty runs are sorted by start once, with
/// identical runs (lanes that inherited one cursor into one segment)
/// merged into one entry that counts their lanes. A round's lanes then
/// read in order of their run start, so their lines rise too and one pass
/// over the live entries counts the distinct ones. Lanes beyond
/// [`WARP_SIZE`] are ignored. Returns the total transaction count.
pub fn warp_load_runs(ctr: &mut KernelCounters, runs: &[Range<usize>]) -> u64 {
    let runs = &runs[..runs.len().min(WARP_SIZE)];
    // `(start, len, lanes)` per distinct non-empty run.
    let mut live = [(0usize, 0usize, 0u32); WARP_SIZE];
    let mut n = 0;
    for run in runs.iter().filter(|run| !run.is_empty()) {
        live[n] = (run.start, run.len(), 1);
        n += 1;
    }
    live[..n].sort_unstable();
    let mut distinct = 0;
    for i in 0..n {
        if distinct > 0 && live[distinct - 1].0 == live[i].0 && live[distinct - 1].1 == live[i].1 {
            live[distinct - 1].2 += 1;
        } else {
            live[distinct] = live[i];
            distinct += 1;
        }
    }
    let (mut n, mut rounds, mut total) = (distinct, 0, 0);
    while n > 0 {
        // Entries still live stay sorted by start as the others drop out.
        let (mut active, mut tx, mut last_line, mut kept) = (0, 0, usize::MAX, 0);
        for i in 0..n {
            let (start, len, lanes) = live[i];
            let line = (start + rounds) / LINE_WORDS;
            if line != last_line {
                tx += 1;
                last_line = line;
            }
            active += lanes;
            if rounds + 1 < len {
                live[kept] = live[i];
                kept += 1;
            }
        }
        ctr.warp_load(active, tx);
        total += tx;
        n = kept;
        rounds += 1;
    }
    total
}

/// Issue per-lane access traces recorded lane by lane, in the lockstep
/// order of the loop that produced them: step by step, and within a step
/// round by round.
///
/// `lane_offs[l]` is lane `l`'s whole trace and `lane_steps[l][s]` the
/// number of its offsets that step `s` issued, so step `s` of lane `l`
/// owns the next `lane_steps[l][s]` offsets. Step `s` charges exactly what
/// one [`warp_load_rounds`] call over each lane's step-`s` offsets does:
/// round `r` loads the `r`-th offset of every lane that has one, in lane
/// order, and a step where no lane accesses charges nothing. Lanes beyond
/// [`WARP_SIZE`] are ignored. Returns the total transaction count.
///
/// # Panics
///
/// If a lane's step counts sum past the length of its trace.
pub fn warp_load_steps(
    ctr: &mut KernelCounters,
    lane_offs: &[Vec<usize>],
    lane_steps: &[Vec<u32>],
) -> u64 {
    let lanes = lane_offs.len().min(lane_steps.len()).min(WARP_SIZE);
    let steps = lane_steps[..lanes].iter().map(Vec::len).max().unwrap_or(0);
    let mut pos = [0usize; WARP_SIZE];
    let mut total = 0;
    for s in 0..steps {
        let mut issued = [0usize; WARP_SIZE];
        for (n, counts) in issued.iter_mut().zip(&lane_steps[..lanes]) {
            *n = counts.get(s).map_or(0, |&c| c as usize);
        }
        let rounds = issued.iter().copied().max().unwrap_or(0);
        for r in 0..rounds {
            let offs = (0..lanes)
                .filter(|&l| r < issued[l])
                .map(|l| lane_offs[l][pos[l] + r]);
            total += warp_load_round(ctr, offs);
        }
        for (p, n) in pos.iter_mut().zip(issued) {
            *p += n;
        }
    }
    total
}

/// Charge a warp-wide *sequential* scan: every lane reads `len` consecutive
/// elements starting at `base` (broadcast access, e.g. the leader's shared
/// candidate array in warp streaming). Consecutive elements coalesce
/// perfectly: `ceil(len / LINE_WORDS)` transactions regardless of lane
/// count.
pub fn warp_scan(ctr: &mut KernelCounters, mask: WarpMask, base: usize, len: usize) {
    if len == 0 {
        return;
    }
    let first = base / LINE_WORDS;
    let last = (base + len - 1) / LINE_WORDS;
    ctr.warp_load(mask.count_ones(), (last - first + 1) as u64);
}

/// The number of distinct values in `lines`, which it leaves at the front
/// of the slice in first-seen order (the rest is unspecified).
///
/// Each value is checked against the distinct ones found so far, so a
/// warp access costs `O(lanes × transactions)` compares and no sort: a
/// coalesced access (few lines) is nearly free.
pub fn distinct_lines(lines: &mut [u64]) -> u64 {
    let mut tx = 0;
    for i in 0..lines.len() {
        let line = lines[i];
        if !lines[..tx].contains(&line) {
            lines[tx] = line;
            tx += 1;
        }
    }
    tx as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_access_is_cheap() {
        let mut c = KernelCounters::default();
        let mut addrs: Lanes<LaneAddr> = [None; WARP_SIZE];
        for (i, a) in addrs.iter_mut().enumerate() {
            *a = Some((Region::LOCAL, 1000 + i)); // 32 consecutive words
        }
        let tx = warp_load(&mut c, &addrs);
        assert!(tx <= 2, "consecutive words should need ≤2 lines, got {tx}");
    }

    #[test]
    fn scattered_access_is_expensive() {
        let mut c = KernelCounters::default();
        let mut addrs: Lanes<LaneAddr> = [None; WARP_SIZE];
        for (i, a) in addrs.iter_mut().enumerate() {
            *a = Some((Region::LOCAL, i * 10_000)); // one line each
        }
        assert_eq!(warp_load(&mut c, &addrs), 32);
        assert_eq!(c.stall_long(), 32 * crate::counters::MEM_LATENCY_CYCLES);
    }

    #[test]
    fn regions_never_share_lines() {
        let mut c = KernelCounters::default();
        let mut addrs: Lanes<LaneAddr> = [None; WARP_SIZE];
        addrs[0] = Some((Region::GLOBAL, 0));
        addrs[1] = Some((Region::LOCAL, 0));
        assert_eq!(warp_load(&mut c, &addrs), 2);
    }

    #[test]
    fn inactive_lanes_cost_nothing() {
        let mut c = KernelCounters::default();
        let addrs: Lanes<LaneAddr> = [None; WARP_SIZE];
        assert_eq!(warp_load(&mut c, &addrs), 0);
        assert_eq!(c.mem_instructions, 1);
        assert_eq!(c.active_lane_ops, 0);
    }

    #[test]
    fn scan_transactions_round_up() {
        let mut c = KernelCounters::default();
        warp_scan(&mut c, u32::MAX, 0, 1);
        assert_eq!(c.mem_transactions, 1);
        warp_scan(&mut c, u32::MAX, 30, 4); // crosses a line
        assert_eq!(c.mem_transactions, 3);
        warp_scan(&mut c, u32::MAX, 0, 0); // empty: free
        assert_eq!(c.mem_instructions, 2);
    }

    /// The per-access loop [`warp_load_rounds`] replaces: one [`warp_load`]
    /// per round over the first [`WARP_SIZE`] lanes.
    fn per_access_rounds(ctr: &mut KernelCounters, seqs: &[Vec<usize>]) -> u64 {
        let seqs = &seqs[..seqs.len().min(WARP_SIZE)];
        let rounds = seqs.iter().map(Vec::len).max().unwrap_or(0);
        let mut tx = 0;
        for r in 0..rounds {
            let mut addrs: Lanes<LaneAddr> = [None; WARP_SIZE];
            for (lane, s) in seqs.iter().enumerate() {
                if let Some(&off) = s.get(r) {
                    addrs[lane] = Some((Region::LOCAL, off));
                }
            }
            tx += warp_load(ctr, &addrs);
        }
        tx
    }

    #[test]
    fn load_rounds_replays_the_per_access_loop_exactly() {
        // Ragged per-lane sequences: lane 0 probes 3 words, lane 1 probes 1,
        // lane 2 none. The batched call must charge the same counters as
        // the equivalent hand-rolled round loop, including round 2 where
        // only lane 0 is still active and round boundaries where some
        // lanes' addresses are None.
        let seqs = vec![vec![0usize, 40, 80], vec![0usize], vec![]];
        let mut batched = KernelCounters::default();
        let tx = warp_load_rounds(&mut batched, &seqs);
        let mut manual = KernelCounters::default();
        let manual_tx = per_access_rounds(&mut manual, &seqs);
        assert_eq!(tx, manual_tx);
        assert_eq!(batched.snapshot(), manual.snapshot());
        assert_eq!(batched.mem_instructions, 3);

        // Every lane with its own ragged sequence over shared lines: the
        // counters, histogram included, match the per-access loop.
        let seqs: Vec<Vec<usize>> = (0..WARP_SIZE)
            .map(|lane| (0..lane % 4).map(|r| (lane * 3 + r * 17) % 72).collect())
            .collect();
        let mut batched = KernelCounters::default();
        let tx = warp_load_rounds(&mut batched, &seqs);
        let mut manual = KernelCounters::default();
        assert_eq!(tx, per_access_rounds(&mut manual, &seqs));
        assert_eq!(batched, manual);

        // Lanes past WARP_SIZE are ignored, including their longer
        // sequences: no extra rounds are issued for them.
        let mut seqs: Vec<Vec<usize>> = (0..WARP_SIZE).map(|lane| vec![lane * 40]).collect();
        seqs.extend((0..8).map(|lane| vec![lane; 5]));
        let mut batched = KernelCounters::default();
        let tx = warp_load_rounds(&mut batched, &seqs);
        let mut manual = KernelCounters::default();
        let manual_tx = per_access_rounds(&mut manual, &seqs);
        assert_eq!(tx, manual_tx);
        assert_eq!(batched.snapshot(), manual.snapshot());
        assert_eq!(batched.mem_instructions, 1);
    }

    #[test]
    fn load_rounds_of_empty_sequences_charges_nothing() {
        let mut c = KernelCounters::default();
        assert_eq!(warp_load_rounds(&mut c, &[]), 0);
        assert_eq!(c.mem_instructions, 0);
        let empties: Vec<Vec<usize>> = vec![vec![]; 4];
        assert_eq!(warp_load_rounds(&mut c, &empties), 0);
        assert_eq!(c.mem_instructions, 0);
    }
}
