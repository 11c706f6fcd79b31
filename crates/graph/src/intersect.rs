//! Sorted-set membership and filtering.
//!
//! The estimators' Refine step keeps the candidates of a minimum segment
//! that are members of every other backward segment, and the SIMT kernels
//! charge the memory model for the probe addresses those searches touch
//! (the paper's Example 4 / Figures 5–6 access-pattern analysis). Three
//! primitives serve both:
//!
//! * [`member`] / [`member_with_probes`] — binary search for one vertex.
//! * [`gallop_member`] / [`gallop_member_probes`] — exponential probe plus
//!   binary search from a cursor that only moves forward, amortized
//!   `O(1 + log gap)` per call when successive queries ascend.
//! * [`filter_by_all_into`] — one ascending pass over a base set with a
//!   gallop cursor per probe set, smallest probe set first: Alley's batched
//!   Refine.
//!
//! Each returns exactly what per-element binary search would, so the
//! estimators stay bit-identical whichever one a caller uses; only the
//! cost differs. The `*_probes` variants report every element offset a
//! search touches, so the SIMT kernels can charge the coalescing memory
//! model with the *actual* per-lane addresses instead of a synthetic model
//! (DESIGN.md §11).

use crate::VertexId;

/// Membership test by binary search (strictly sorted `set`).
#[inline]
pub fn member(set: &[VertexId], v: VertexId) -> bool {
    set.binary_search(&v).is_ok()
}

/// Binary-search membership that reports every element offset the search
/// touches to `probe` — the SIMT kernels feed these to the coalescing
/// memory model as the actual addresses a device-side search would load.
pub fn member_with_probes(set: &[VertexId], v: VertexId, mut probe: impl FnMut(usize)) -> bool {
    let mut lo = 0usize;
    let mut hi = set.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probe(mid);
        match set[mid].cmp(&v) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Monotone galloping membership: test whether `v` is in `set[*cursor..]`,
/// advancing `*cursor` to the lower bound of `v`. Amortized `O(1 + log
/// gap)` per call when successive `v`s ascend — the engine's mechanism for
/// intersecting one ascending stream against a sorted segment.
#[inline]
pub fn gallop_member(set: &[VertexId], cursor: &mut usize, v: VertexId) -> bool {
    gallop_member_probes(set, cursor, v, |_| {})
}

/// [`gallop_member`] reporting every element offset probed (exponential
/// probes plus the binary-search refinement) to `probe`.
pub fn gallop_member_probes(
    set: &[VertexId],
    cursor: &mut usize,
    v: VertexId,
    mut probe: impl FnMut(usize),
) -> bool {
    let n = set.len();
    let mut lo = *cursor;
    if lo >= n {
        return false;
    }
    probe(lo);
    if set[lo] >= v {
        *cursor = lo;
        return set[lo] == v;
    }
    // set[lo] < v: gallop until we bracket v.
    let mut step = 1usize;
    let hi = loop {
        let idx = lo + step;
        if idx >= n {
            break n;
        }
        probe(idx);
        match set[idx].cmp(&v) {
            std::cmp::Ordering::Less => {
                lo = idx;
                step *= 2;
            }
            std::cmp::Ordering::Equal => {
                *cursor = idx;
                return true;
            }
            std::cmp::Ordering::Greater => break idx,
        }
    };
    // Binary search in (lo, hi): set[lo] < v and (hi == n or set[hi] > v).
    let mut l = lo + 1;
    let mut h = hi;
    while l < h {
        let mid = l + (h - l) / 2;
        probe(mid);
        match set[mid].cmp(&v) {
            std::cmp::Ordering::Less => l = mid + 1,
            std::cmp::Ordering::Greater => h = mid,
            std::cmp::Ordering::Equal => {
                *cursor = mid;
                return true;
            }
        }
    }
    *cursor = l;
    false
}

/// Stack capacity for probe-set bookkeeping; wider filters spill to the
/// heap (queries are bounded well below this in practice).
const KWAY_STACK: usize = 32;

/// Filter `base` by membership in every probe set, smallest probe set
/// first (fail fast). Output preserves `base` order, i.e. stays sorted —
/// exactly the per-element filter result, computed in one ascending pass
/// with a monotone gallop cursor per probe set instead of independent
/// binary searches. With no probe sets, `base` is copied through unchanged.
pub fn filter_by_all_into(base: &[VertexId], probes: &[&[VertexId]], out: &mut Vec<VertexId>) {
    if probes.iter().any(|s| s.is_empty()) {
        return;
    }
    if probes.is_empty() {
        out.extend_from_slice(base);
        return;
    }
    let mut sets_buf: [(&[VertexId], usize); KWAY_STACK] = [(&[], 0); KWAY_STACK];
    let mut sets_heap;
    let sets: &mut [(&[VertexId], usize)] = if probes.len() <= KWAY_STACK {
        &mut sets_buf[..probes.len()]
    } else {
        sets_heap = vec![(&[][..], 0); probes.len()];
        &mut sets_heap
    };
    for (slot, &set) in sets.iter_mut().zip(probes) {
        slot.0 = set;
    }
    sets.sort_by_key(|(set, _)| set.len());
    'next: for &v in base {
        for (set, cursor) in sets.iter_mut() {
            if !gallop_member(set, cursor, v) {
                if *cursor >= set.len() {
                    return; // that probe set is exhausted: nothing later matches
                }
                continue 'next;
            }
        }
        out.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallop_cursor_is_monotone_and_correct() {
        let set: Vec<VertexId> = (0..200).map(|i| i * 3).collect();
        let mut cursor = 0;
        let mut probes = Vec::new();
        for v in 0..620 {
            let got = gallop_member_probes(&set, &mut cursor, v, |p| probes.push(p));
            assert_eq!(got, v % 3 == 0 && v < 600, "v={v}");
        }
        assert!(probes.iter().all(|&p| p < set.len()));
        // Monotone queries keep the amortized probe count near-linear.
        assert!(probes.len() < 620 * 3, "probes: {}", probes.len());
    }

    #[test]
    fn member_probe_trace_matches_binary_search() {
        let set: Vec<VertexId> = vec![2, 4, 8, 16, 32, 64];
        for v in 0..70 {
            let mut probes = Vec::new();
            let got = member_with_probes(&set, v, |p| probes.push(p));
            assert_eq!(got, set.binary_search(&v).is_ok());
            assert!(probes.len() <= 3, "log2(6) probes max, got {probes:?}");
        }
    }

    #[test]
    fn filter_by_all_matches_per_element_filter() {
        let base: Vec<VertexId> = (0..50).collect();
        let p1: Vec<VertexId> = (0..50).filter(|v| v % 2 == 0).collect();
        let p2: Vec<VertexId> = (10..40).collect();
        let mut out = Vec::new();
        filter_by_all_into(&base, &[&p1, &p2], &mut out);
        let want: Vec<VertexId> = base
            .iter()
            .copied()
            .filter(|&v| member(&p1, v) && member(&p2, v))
            .collect();
        assert_eq!(out, want);
        out.clear();
        filter_by_all_into(&base, &[], &mut out);
        assert_eq!(out, base, "no probe sets: identity");
    }

    #[test]
    fn wide_kway_spills_to_heap() {
        let sets: Vec<Vec<VertexId>> = (0..KWAY_STACK + 4)
            .map(|_| (0..64).collect::<Vec<VertexId>>())
            .collect();
        let refs: Vec<&[VertexId]> = sets.iter().map(|s| s.as_slice()).collect();
        let mut out = Vec::new();
        filter_by_all_into(&sets[0], &refs[1..], &mut out);
        assert_eq!(out.len(), 64);
    }
}
