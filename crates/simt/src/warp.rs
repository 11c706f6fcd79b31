//! Lockstep lane arrays and warp-level primitives.
//!
//! A warp is 32 lanes executing the same instruction. Kernel code in this
//! workspace is written at warp granularity: per-"instruction" loops over
//! the lane array, with cross-lane communication going through the
//! primitives below (mirroring CUDA's `__any_sync`, `__ballot_sync`,
//! `__shfl_sync`, and cooperative reductions). Each primitive charges the
//! kernel counters like a single warp instruction.
//!
//! Every primitive also reports to a [`WarpSanitizer`] handle, whose
//! synccheck validates the declared participation mask against the
//! lanes the executor actually has converged — divergent participation in
//! a `*_sync` primitive is undefined behaviour on real hardware — and
//! `shfl` flags out-of-range or non-participating source lanes. The
//! disabled handle ([`WarpSanitizer::disabled`]) reduces each hook to one
//! branch.

use crate::counters::KernelCounters;
pub use gsword_sanitizer::WarpSanitizer;

/// Number of lanes per warp (fixed at 32, as on NVIDIA hardware).
pub const WARP_SIZE: usize = 32;

/// One value per lane.
pub type Lanes<T> = [T; WARP_SIZE];

/// Active-lane mask (bit `i` set ⇔ lane `i` participates).
pub type WarpMask = u32;

/// Mask with all 32 lanes active.
pub const FULL_MASK: WarpMask = u32::MAX;

/// `__any_sync`: does any active lane satisfy the predicate?
#[inline]
pub fn any(
    ctr: &mut KernelCounters,
    san: &WarpSanitizer,
    mask: WarpMask,
    pred: &Lanes<bool>,
) -> bool {
    ctr.warp_instruction(mask);
    san.sync_op("any", mask);
    pred.iter()
        .enumerate()
        .any(|(i, &p)| mask & (1 << i) != 0 && p)
}

/// `__ballot_sync`: bitmask of active lanes satisfying the predicate.
#[inline]
pub fn ballot(
    ctr: &mut KernelCounters,
    san: &WarpSanitizer,
    mask: WarpMask,
    pred: &Lanes<bool>,
) -> WarpMask {
    ctr.warp_instruction(mask);
    san.sync_op("ballot", mask);
    let mut out = 0u32;
    for (i, &p) in pred.iter().enumerate() {
        if mask & (1 << i) != 0 && p {
            out |= 1 << i;
        }
    }
    out
}

/// Lowest set lane of a ballot, or `None` for an empty ballot. Used for
/// leader election in Algorithms 2 and 3.
#[inline]
pub fn first_lane(ballot: WarpMask) -> Option<usize> {
    if ballot == 0 {
        None
    } else {
        Some(ballot.trailing_zeros() as usize)
    }
}

/// `__shfl_sync`: every active lane reads lane `src`'s value.
///
/// As on hardware, an out-of-range `src` wraps modulo [`WARP_SIZE`];
/// under `synccheck` the wrap — and any read from a source lane outside
/// the participating mask — is flagged as a violation, because the
/// shuffled value is undefined in those cases.
#[inline]
pub fn shfl<T: Copy>(
    ctr: &mut KernelCounters,
    san: &WarpSanitizer,
    mask: WarpMask,
    vals: &Lanes<T>,
    src: usize,
) -> T {
    ctr.warp_instruction(mask);
    san.sync_op("shfl", mask);
    san.shfl_src(mask, src);
    vals[src % WARP_SIZE]
}

/// Warp-wide sum over active lanes (`__reduce_add_sync` equivalent).
#[inline]
pub fn reduce_sum(
    ctr: &mut KernelCounters,
    san: &WarpSanitizer,
    mask: WarpMask,
    vals: &Lanes<f64>,
) -> f64 {
    ctr.warp_instruction(mask);
    san.sync_op("reduce_sum", mask);
    (0..WARP_SIZE)
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| vals[i])
        .sum()
}

/// Warp-wide count of active lanes satisfying a predicate.
#[inline]
pub fn reduce_count(
    ctr: &mut KernelCounters,
    san: &WarpSanitizer,
    mask: WarpMask,
    pred: &Lanes<bool>,
) -> u32 {
    ctr.warp_instruction(mask);
    san.sync_op("reduce_count", mask);
    (0..WARP_SIZE)
        .filter(|&i| mask & (1 << i) != 0 && pred[i])
        .count() as u32
}

/// Warp-wide argmax by key over active lanes: returns the lane holding the
/// largest key, or `None` if no active lane. Ties break to the lowest lane,
/// which matches a deterministic tree reduction.
#[inline]
pub fn reduce_max_by_key(
    ctr: &mut KernelCounters,
    san: &WarpSanitizer,
    mask: WarpMask,
    keys: &Lanes<f64>,
) -> Option<usize> {
    ctr.warp_instruction(mask);
    san.sync_op("reduce_max_by_key", mask);
    let mut best: Option<usize> = None;
    for i in 0..WARP_SIZE {
        if mask & (1 << i) == 0 {
            continue;
        }
        best = match best {
            None => Some(i),
            Some(b) if keys[i] > keys[b] => Some(i),
            keep => keep,
        };
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctr() -> KernelCounters {
        KernelCounters::default()
    }

    fn san() -> WarpSanitizer {
        WarpSanitizer::disabled()
    }

    #[test]
    fn any_respects_mask() {
        let mut c = ctr();
        let s = san();
        let mut pred = [false; WARP_SIZE];
        pred[5] = true;
        assert!(any(&mut c, &s, FULL_MASK, &pred));
        assert!(!any(&mut c, &s, !(1 << 5), &pred));
        assert!(!any(&mut c, &s, FULL_MASK, &[false; WARP_SIZE]));
    }

    #[test]
    fn ballot_and_first_lane() {
        let mut c = ctr();
        let s = san();
        let mut pred = [false; WARP_SIZE];
        pred[3] = true;
        pred[17] = true;
        let b = ballot(&mut c, &s, FULL_MASK, &pred);
        assert_eq!(b, (1 << 3) | (1 << 17));
        assert_eq!(first_lane(b), Some(3));
        assert_eq!(first_lane(0), None);
    }

    #[test]
    fn shfl_broadcasts() {
        let mut c = ctr();
        let s = san();
        let mut vals = [0u64; WARP_SIZE];
        vals[9] = 42;
        assert_eq!(shfl(&mut c, &s, FULL_MASK, &vals, 9), 42);
    }

    #[test]
    fn shfl_wraps_out_of_range_source() {
        let mut c = ctr();
        let s = san();
        let mut vals = [0u64; WARP_SIZE];
        vals[9] = 42;
        // Hardware semantics: srcLane % 32.
        assert_eq!(shfl(&mut c, &s, FULL_MASK, &vals, 9 + WARP_SIZE), 42);
    }

    #[test]
    fn reductions() {
        let mut c = ctr();
        let s = san();
        let mut vals = [0.0; WARP_SIZE];
        vals[0] = 1.5;
        vals[31] = 2.5;
        assert_eq!(reduce_sum(&mut c, &s, FULL_MASK, &vals), 4.0);
        // Masked-out lane excluded.
        assert_eq!(reduce_sum(&mut c, &s, !(1u32 << 31), &vals), 1.5);

        let mut pred = [false; WARP_SIZE];
        pred[1] = true;
        pred[2] = true;
        assert_eq!(reduce_count(&mut c, &s, FULL_MASK, &pred), 2);
        assert_eq!(reduce_count(&mut c, &s, 0b10, &pred), 1);
    }

    #[test]
    fn reduce_max_by_key_picks_largest_active() {
        let mut c = ctr();
        let s = san();
        let mut keys = [0.0; WARP_SIZE];
        keys[4] = 0.9;
        keys[20] = 0.95;
        assert_eq!(reduce_max_by_key(&mut c, &s, FULL_MASK, &keys), Some(20));
        assert_eq!(
            reduce_max_by_key(&mut c, &s, 1 << 4 | 1 << 7, &keys),
            Some(4)
        );
        assert_eq!(reduce_max_by_key(&mut c, &s, 0, &keys), None);
    }

    #[test]
    fn primitives_charge_counters() {
        let mut c = ctr();
        let s = san();
        let before = c.alu_instructions;
        any(&mut c, &s, FULL_MASK, &[false; WARP_SIZE]);
        ballot(&mut c, &s, FULL_MASK, &[false; WARP_SIZE]);
        assert_eq!(c.alu_instructions, before + 2);
    }
}
