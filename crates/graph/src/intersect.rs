//! Degree-adaptive sorted-set intersection.
//!
//! The estimators' Refine step intersects a minimum candidate segment
//! against every other backward segment, and the SIMT kernels charge the
//! memory model for the probe addresses those intersections touch (the
//! paper's Example 4 / Figures 5–6 access-pattern analysis). One fixed
//! strategy is wrong for both, so this module picks per call:
//!
//! * **Merge** — the classic two-pointer walk, `O(|a| + |b|)`. Best when
//!   operand sizes are comparable.
//! * **Gallop** — iterate the smaller set, exponential-probe + binary
//!   search into the larger one from a monotonically advancing cursor,
//!   `O(|small| · log(|large|/|small|))` amortized. Best when sizes are
//!   skewed by at least [`GALLOP_RATIO`].
//!
//! The k-way entry points ([`intersect_multi_into`],
//! [`intersect_filter_into`]) order operands smallest-first and
//! short-circuit on an empty intermediate result. All functions produce
//! identical output for identical inputs — strategy selection affects
//! cost only — which is what lets the estimators stay bit-identical while
//! the access pattern underneath them changes.
//!
//! The `*_probes` variants report every element offset a search touches,
//! so the SIMT kernels can charge the coalescing memory model with the
//! *actual* per-lane addresses instead of a synthetic model (DESIGN.md
//! §11).

use crate::VertexId;

/// Size-ratio cutover between merge and gallop: gallop when the larger
/// operand is more than `GALLOP_RATIO` times the smaller one. At ratio r,
/// merging costs `small·(1+r)` steps while galloping costs about
/// `small·(log2(r)+2)`; the curves cross near 8 and galloping's cursor
/// locality wins beyond it.
pub const GALLOP_RATIO: usize = 8;

/// The strategy [`intersect_into`] picks for a pair of operand sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Two-pointer linear merge.
    Merge,
    /// Exponential probe + binary search of the smaller set into the
    /// larger.
    Gallop,
}

/// The strategy the adaptive pairwise intersection uses for operand sizes
/// `(a_len, b_len)`.
#[inline]
pub fn strategy_for(a_len: usize, b_len: usize) -> Strategy {
    let (small, large) = if a_len <= b_len {
        (a_len, b_len)
    } else {
        (b_len, a_len)
    };
    if large > GALLOP_RATIO * small {
        Strategy::Gallop
    } else {
        Strategy::Merge
    }
}

/// Append `a ∩ b` (both strictly sorted) to `out`, picking merge or gallop
/// by [`strategy_for`]. Output stays sorted; identical to every other
/// strategy's output.
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    match strategy_for(a.len(), b.len()) {
        Strategy::Gallop => {
            if a.len() <= b.len() {
                gallop_into(a, b, out)
            } else {
                gallop_into(b, a, out)
            }
        }
        Strategy::Merge => merge_into(a, b, out),
    }
}

/// Convenience: `a ∩ b` into a fresh vector.
pub fn intersect(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    intersect_into(a, b, &mut out);
    out
}

/// Two-pointer linear merge intersection (both inputs strictly sorted).
pub fn merge_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping intersection: iterate `small`, exponential-probe into `large`
/// from a cursor that only moves forward. Requires both inputs strictly
/// sorted; `small` need not actually be the smaller operand for
/// correctness, only for speed.
pub fn gallop_into(small: &[VertexId], large: &[VertexId], out: &mut Vec<VertexId>) {
    let mut cursor = 0usize;
    for &v in small {
        if cursor >= large.len() {
            break;
        }
        if gallop_member(large, &mut cursor, v) {
            out.push(v);
        }
    }
}

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

/// Stack capacity for k-way operand bookkeeping; spills to the heap for
/// wider intersections (queries are bounded well below this in practice).
const KWAY_STACK: usize = 32;

/// Append the k-way intersection of `sets` (each strictly sorted) to
/// `out`. Operands are ordered smallest-first and the walk short-circuits
/// the moment any operand (or the running result) is empty. Panics on an
/// empty `sets` slice — the intersection of zero sets is undefined.
pub fn intersect_multi_into(sets: &[&[VertexId]], out: &mut Vec<VertexId>) {
    assert!(!sets.is_empty(), "k-way intersection of zero sets");
    if sets.iter().any(|s| s.is_empty()) {
        return; // short-circuit: some operand is empty
    }
    let mut order_buf = [0usize; KWAY_STACK];
    let mut order_heap;
    let order: &mut [usize] = if sets.len() <= KWAY_STACK {
        &mut order_buf[..sets.len()]
    } else {
        order_heap = vec![0usize; sets.len()];
        &mut order_heap
    };
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i;
    }
    order.sort_by_key(|&i| sets[i].len());
    let base = sets[order[0]];
    intersect_filter_into(base, &order[1..], |i| sets[i], out);
}

/// Append the elements of `base` (strictly sorted) that are members of
/// *every* set `get(key)` for `key` in `keys` to `out`. The workhorse
/// behind [`intersect_multi_into`] and the Alley Refine step: one
/// ascending pass over `base` with a monotone gallop cursor per probe set.
/// With no keys, `base` is copied through unchanged.
fn intersect_filter_into<'s>(
    base: &[VertexId],
    keys: &[usize],
    get: impl Fn(usize) -> &'s [VertexId],
    out: &mut Vec<VertexId>,
) {
    if keys.is_empty() {
        out.extend_from_slice(base);
        return;
    }
    let mut cursor_buf = [0usize; KWAY_STACK];
    let mut cursor_heap;
    let cursors: &mut [usize] = if keys.len() <= KWAY_STACK {
        &mut cursor_buf[..keys.len()]
    } else {
        cursor_heap = vec![0usize; keys.len()];
        &mut cursor_heap
    };
    'next: for &v in base {
        for (k, cursor) in keys.iter().zip(cursors.iter_mut()) {
            let set = get(*k);
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

/// Filter `base` by membership in every probe set, smallest probe set
/// first (fail fast). Output preserves `base` order, i.e. stays sorted —
/// exactly the per-element filter result, computed with monotone cursors
/// instead of independent binary searches.
pub fn filter_by_all_into(base: &[VertexId], probes: &[&[VertexId]], out: &mut Vec<VertexId>) {
    if probes.iter().any(|s| s.is_empty()) {
        return;
    }
    if probes.is_empty() {
        out.extend_from_slice(base);
        return;
    }
    let mut order_buf = [0usize; KWAY_STACK];
    let mut order_heap;
    let order: &mut [usize] = if probes.len() <= KWAY_STACK {
        &mut order_buf[..probes.len()]
    } else {
        order_heap = vec![0usize; probes.len()];
        &mut order_heap
    };
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i;
    }
    order.sort_by_key(|&i| probes[i].len());
    intersect_filter_into(base, order, |i| probes[i], out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = a.to_vec();
        out.retain(|v| b.contains(v));
        out
    }

    #[test]
    fn pairwise_strategies_agree_with_naive() {
        let a: Vec<VertexId> = vec![1, 3, 5, 7];
        let b: Vec<VertexId> = vec![2, 3, 4, 7, 9];
        let want = naive(&a, &b);
        for f in [merge_into, gallop_into, intersect_into] {
            let mut out = Vec::new();
            f(&a, &b, &mut out);
            assert_eq!(out, want);
        }
        let big: Vec<VertexId> = (0..1000).collect();
        let small: Vec<VertexId> = vec![5, 999, 1001];
        assert_eq!(intersect(&big, &small), vec![5, 999]);
        assert_eq!(intersect(&small, &big), vec![5, 999]);
        assert_eq!(intersect(&[], &big), Vec::<VertexId>::new());
    }

    #[test]
    fn strategy_cutover_boundary() {
        // 8× exactly merges; one past the ratio gallops.
        assert_eq!(strategy_for(4, 32), Strategy::Merge);
        assert_eq!(strategy_for(4, 33), Strategy::Gallop);
        assert_eq!(strategy_for(33, 4), Strategy::Gallop);
        assert_eq!(strategy_for(0, 1), Strategy::Gallop);
        assert_eq!(strategy_for(7, 7), Strategy::Merge);
    }

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
    fn multi_orders_smallest_first_and_short_circuits() {
        let a: Vec<VertexId> = (0..100).collect();
        let b: Vec<VertexId> = (0..100).filter(|v| v % 2 == 0).collect();
        let c: Vec<VertexId> = (0..100).filter(|v| v % 3 == 0).collect();
        let mut out = Vec::new();
        intersect_multi_into(&[&a, &b, &c], &mut out);
        let want: Vec<VertexId> = (0..100).filter(|v| v % 6 == 0).collect();
        assert_eq!(out, want);
        out.clear();
        intersect_multi_into(&[&a, &[], &c], &mut out);
        assert!(out.is_empty(), "empty operand short-circuits");
        out.clear();
        intersect_multi_into(&[&b], &mut out);
        assert_eq!(out, b, "k=1 copies through");
    }

    #[test]
    #[should_panic(expected = "zero sets")]
    fn multi_rejects_zero_sets() {
        intersect_multi_into(&[], &mut Vec::new());
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
        intersect_multi_into(&refs, &mut out);
        assert_eq!(out.len(), 64);
        out.clear();
        filter_by_all_into(&sets[0], &refs[1..], &mut out);
        assert_eq!(out.len(), 64);
    }
}
