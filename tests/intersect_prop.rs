//! Property tests for the degree-adaptive intersection engine: every
//! strategy (merge, gallop) and the k-way path must agree with a
//! naive `Vec::retain` reference on random sorted inputs, across skew
//! ratios spanning the 8× merge/gallop cutover.

use gsword_graph::intersect::{self, GALLOP_RATIO};
use gsword_graph::VertexId;
use proptest::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Deterministic sorted deduped vector of at most `max_len` elements drawn
/// from `0..max_val`.
fn mk_sorted(seed: &mut u64, max_len: usize, max_val: u32) -> Vec<VertexId> {
    let len = (xorshift(seed) as usize) % (max_len + 1);
    let mut v: Vec<VertexId> = (0..len)
        .map(|_| (xorshift(seed) % u64::from(max_val)) as VertexId)
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The reference semantics: `a ∩ b` via `Vec::retain` + linear `contains`.
fn naive(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = a.to_vec();
    out.retain(|v| b.contains(v));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Similar sizes land on the merge side of the cutover; heavy skew in
    // either direction lands on the gallop side. `a` up to 200 elements
    // against `b` up to 25 covers ratios from 1× through far past 8×.
    #[test]
    fn every_pairwise_strategy_matches_naive(seed in any::<u64>()) {
        let mut s = seed | 1;
        let a = mk_sorted(&mut s, 200, 400);
        let b = mk_sorted(&mut s, 25, 400);
        let want = naive(&a, &b);

        let mut merged = Vec::new();
        intersect::merge_into(&a, &b, &mut merged);
        prop_assert_eq!(&merged, &want, "merge");

        let mut galloped = Vec::new();
        intersect::gallop_into(&a, &b, &mut galloped);
        prop_assert_eq!(&galloped, &want, "gallop a→b");
        galloped.clear();
        intersect::gallop_into(&b, &a, &mut galloped);
        prop_assert_eq!(&galloped, &want, "gallop b→a");

        let mut adaptive = Vec::new();
        intersect::intersect_into(&a, &b, &mut adaptive);
        prop_assert_eq!(
            &adaptive,
            &want,
            "adaptive picked {:?}",
            intersect::strategy_for(a.len(), b.len())
        );
    }

    #[test]
    fn kway_matches_naive_fold(seed in any::<u64>(), k in 1usize..6) {
        let mut s = seed | 1;
        let sets: Vec<Vec<VertexId>> = (0..k).map(|_| mk_sorted(&mut s, 80, 120)).collect();
        let refs: Vec<&[VertexId]> = sets.iter().map(|v| v.as_slice()).collect();
        let mut got = Vec::new();
        intersect::intersect_multi_into(&refs, &mut got);
        let want = sets[1..]
            .iter()
            .fold(sets[0].clone(), |acc, set| naive(&acc, set));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn filter_by_all_matches_member_filter(seed in any::<u64>(), k in 0usize..5) {
        let mut s = seed | 1;
        let base = mk_sorted(&mut s, 150, 300);
        let probes: Vec<Vec<VertexId>> = (0..k).map(|_| mk_sorted(&mut s, 150, 300)).collect();
        let refs: Vec<&[VertexId]> = probes.iter().map(|v| v.as_slice()).collect();
        let mut got = Vec::new();
        intersect::filter_by_all_into(&base, &refs, &mut got);
        let want: Vec<VertexId> = base
            .iter()
            .copied()
            .filter(|&v| refs.iter().all(|set| intersect::member(set, v)))
            .collect();
        prop_assert_eq!(got, want);
    }

    // The kernels' monotone probe pattern: ascending queries against a
    // persistent cursor must report exactly binary-search membership, and
    // every recorded probe offset must be in bounds.
    #[test]
    fn gallop_cursor_agrees_with_binary_search_on_ascending_queries(seed in any::<u64>()) {
        let mut s = seed | 1;
        let set = mk_sorted(&mut s, 120, 500);
        let queries = mk_sorted(&mut s, 60, 500);
        let mut cursor = 0usize;
        for &v in &queries {
            let mut probes = Vec::new();
            let got = intersect::gallop_member_probes(&set, &mut cursor, v, |p| probes.push(p));
            prop_assert_eq!(got, set.binary_search(&v).is_ok(), "v={}", v);
            prop_assert!(probes.iter().all(|&p| p < set.len()));
            prop_assert!(cursor <= set.len());
        }
    }
}

#[test]
fn cutover_boundary_is_exact() {
    use intersect::{strategy_for, Strategy};
    // The documented heuristic: gallop kicks in strictly past 8× skew.
    assert_eq!(GALLOP_RATIO, 8);
    for small in [1usize, 3, 10] {
        assert_eq!(strategy_for(small, small * GALLOP_RATIO), Strategy::Merge);
        assert_eq!(
            strategy_for(small, small * GALLOP_RATIO + 1),
            Strategy::Gallop
        );
        // Symmetric in operand order.
        assert_eq!(strategy_for(small * GALLOP_RATIO, small), Strategy::Merge);
        assert_eq!(
            strategy_for(small * GALLOP_RATIO + 1, small),
            Strategy::Gallop
        );
    }

    // Both sides of the boundary still produce identical output.
    let small: Vec<VertexId> = (0..8).map(|i| i * 13).collect();
    for large_len in [64u32, 65] {
        let large: Vec<VertexId> = (0..large_len).collect();
        let mut out = Vec::new();
        intersect::intersect_into(&small, &large, &mut out);
        let mut want = small.clone();
        want.retain(|v| large.contains(v));
        assert_eq!(out, want, "large_len={large_len}");
    }
}
