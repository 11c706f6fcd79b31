//! Criterion: the adaptive intersection engine's two strategies across
//! skew ratios (1×/16×/256×) plus the k-way path on a power-law analogue
//! of candidate-segment sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gsword_graph::intersect;
use gsword_graph::VertexId;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Sorted deduped set of roughly `len` elements spread over `0..span`.
fn mk_set(seed: u64, len: usize, span: u32) -> Vec<VertexId> {
    let mut s = seed | 1;
    let mut v: Vec<VertexId> = (0..len)
        .map(|_| (xorshift(&mut s) % u64::from(span)) as VertexId)
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn bench_pairwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect");
    const SMALL: usize = 512;
    for skew in [1usize, 16, 256] {
        let a = mk_set(0xA5, SMALL, (SMALL * skew * 4) as u32);
        let b = mk_set(0x5A, SMALL * skew, (SMALL * skew * 4) as u32);
        group.throughput(Throughput::Elements(a.len() as u64));
        let mut out = Vec::with_capacity(SMALL);

        group.bench_with_input(
            BenchmarkId::new("merge", format!("{skew}x")),
            &skew,
            |ben, _| {
                ben.iter(|| {
                    intersect::merge_into(&a, &b, &mut out);
                    out.len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("gallop", format!("{skew}x")),
            &skew,
            |ben, _| {
                ben.iter(|| {
                    intersect::gallop_into(&a, &b, &mut out);
                    out.len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("adaptive", format!("{skew}x")),
            &skew,
            |ben, _| {
                ben.iter(|| {
                    intersect::intersect_into(&a, &b, &mut out);
                    out.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_kway(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect_kway");
    // Power-law analogue of backward candidate segments: sizes fall off
    // roughly ×4 per constraint, like degree-sorted candidate sets.
    let sizes = [16_384usize, 4_096, 1_024, 256, 64];
    let sets: Vec<Vec<VertexId>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &len)| mk_set(0xBEEF + i as u64, len, 65_536))
        .collect();
    let mut out = Vec::new();
    for k in [2usize, 3, 5] {
        let refs: Vec<&[VertexId]> = sets[..k].iter().map(|v| v.as_slice()).collect();
        group.bench_with_input(BenchmarkId::new("powerlaw", k), &k, |ben, _| {
            ben.iter(|| {
                intersect::intersect_multi_into(&refs, &mut out);
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pairwise, bench_kway);
criterion_main!(benches);
