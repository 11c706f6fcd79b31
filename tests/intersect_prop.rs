//! Property tests for sorted-set filtering: the batched probe filter and
//! the monotone gallop cursor must agree with per-element binary search on
//! random sorted inputs.

use gsword_graph::intersect;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

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
