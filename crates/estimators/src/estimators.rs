//! WanderJoin and Alley as instances of the RSV abstraction (Fig. 19).

use gsword_graph::{intersect, VertexId};

use crate::ctx::Segment;
use crate::sample::{SampleState, MAX_QUERY};

/// Which built-in estimator to run — the paper's two state-of-the-art RW
/// estimators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// WanderJoin [Li et al.]: pass-through Refine, edge checks in Validate.
    WanderJoin,
    /// Alley [Kim et al.]: full intersection Refine, duplicate check in
    /// Validate.
    Alley,
}

impl EstimatorKind {
    /// Short display name used in experiment tables ("WJ"/"AL").
    pub fn short(&self) -> &'static str {
        match self {
            EstimatorKind::WanderJoin => "WJ",
            EstimatorKind::Alley => "AL",
        }
    }
}

/// The user-facing RSV interface of gSWORD (Fig. 19).
///
/// At each iteration the engine resolves the backward constraints of the
/// current position into local candidate [`Segment`]s, then consults the
/// estimator:
///
/// * [`Estimator::refine_one`] decides whether one candidate survives the
///   Refine step (evaluated per candidate so warp streaming can assign one
///   candidate per lane);
/// * [`Estimator::validate`] checks the sampled vertex (duplicate checks
///   and any edge checks the estimator deferred out of Refine).
///
/// The split between the two is the estimator's design space: WanderJoin
/// defers everything to Validate, Alley pulls everything into Refine, and
/// users can implement anything in between (see the `custom_estimator`
/// example).
///
/// The device engine searches the backward segments for each Refine
/// candidate anyway, to charge the probes to the memory model. An
/// estimator whose Refine is exactly that membership test declares it with
/// [`Estimator::refine_is_membership`], and the engine takes the verdict
/// from the charged search instead of calling `refine_one` again. Any
/// other estimator, whatever its [`Estimator::kind`], keeps `refine_one`.
pub trait Estimator: Sync {
    /// Whether Refine filters at all. When `false` the engine samples
    /// straight from the minimum candidate segment (WanderJoin).
    fn needs_refine(&self) -> bool;

    /// Refine one candidate `v` against the backward segments.
    fn refine_one(&self, segs: &[Segment<'_>], v: VertexId) -> bool;

    /// Whether [`Estimator::refine_one`]`(segs, v)` is exactly "`v` is a
    /// member of every segment in `segs`" (Alley's Refine). Default `false`.
    ///
    /// When `true`, the device engine does not call `refine_one`: it takes
    /// the verdict from the search it runs to charge the probes. Return
    /// `true` only if the equivalence holds for every input, or estimates
    /// silently change.
    fn refine_is_membership(&self) -> bool {
        false
    }

    /// Refine a whole candidate segment at once, appending survivors to
    /// `out` in `cand` order (`cand` is sorted ascending, as every
    /// candidate segment in the system is).
    ///
    /// The default forwards to [`Estimator::refine_one`] per element, so
    /// custom estimators get set-refinement for free; built-ins with
    /// set-level structure override it with a batched strategy (Alley uses
    /// `intersect::filter_by_all_into`). Overrides must return exactly the
    /// per-element result — the engine's bit-identical-estimates guarantee
    /// rides on it.
    fn refine_into(&self, segs: &[Segment<'_>], cand: &[VertexId], out: &mut Vec<VertexId>) {
        out.extend(cand.iter().copied().filter(|&v| self.refine_one(segs, v)));
    }

    /// Validate the sampled vertex `v` against the backward segments and
    /// the partial instance.
    fn validate(&self, segs: &[Segment<'_>], s: &SampleState, v: VertexId) -> bool;

    /// The kind tag (for reports). Custom estimators may pick whichever
    /// built-in kind they behave most like.
    fn kind(&self) -> EstimatorKind;
}

/// WanderJoin: samples from the minimum local candidate set directly and
/// validates all backward edges afterwards. Cheap iterations, more invalid
/// samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct WanderJoin;

impl Estimator for WanderJoin {
    #[inline]
    fn needs_refine(&self) -> bool {
        false
    }

    #[inline]
    fn refine_one(&self, _segs: &[Segment<'_>], _v: VertexId) -> bool {
        true
    }

    #[inline]
    fn validate(&self, segs: &[Segment<'_>], s: &SampleState, v: VertexId) -> bool {
        // Duplicate check plus *all* backward edges (not just the minimum
        // segment the vertex was drawn from).
        !s.contains(v) && segs.iter().all(|(seg, _)| intersect::member(seg, v))
    }

    #[inline]
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::WanderJoin
    }
}

/// Alley: refines the candidate set by intersecting with *all* backward
/// constraints before sampling, so every refined candidate yields a valid
/// partial instance (up to duplicates). Expensive iterations, fewer invalid
/// samples, lower variance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Alley;

impl Estimator for Alley {
    #[inline]
    fn needs_refine(&self) -> bool {
        true
    }

    #[inline]
    fn refine_one(&self, segs: &[Segment<'_>], v: VertexId) -> bool {
        segs.iter().all(|(seg, _)| intersect::member(seg, v))
    }

    #[inline]
    fn refine_is_membership(&self) -> bool {
        true
    }

    /// Batched Refine: one ascending pass over `cand` with a monotone
    /// gallop cursor per backward segment (smallest segment probed first),
    /// instead of `|cand| × |segs|` independent binary searches. Same
    /// survivors in the same order as the per-element path — the
    /// intersection of sorted sets doesn't depend on strategy.
    fn refine_into(&self, segs: &[Segment<'_>], cand: &[VertexId], out: &mut Vec<VertexId>) {
        if segs.is_empty() {
            out.extend_from_slice(cand);
            return;
        }
        let mut buf: [&[VertexId]; MAX_QUERY] = [&[]; MAX_QUERY];
        if segs.len() <= MAX_QUERY {
            for (slot, (seg, _)) in buf.iter_mut().zip(segs) {
                *slot = seg;
            }
            intersect::filter_by_all_into(cand, &buf[..segs.len()], out);
        } else {
            let probes: Vec<&[VertexId]> = segs.iter().map(|&(seg, _)| seg).collect();
            intersect::filter_by_all_into(cand, &probes, out);
        }
    }

    #[inline]
    fn validate(&self, _segs: &[Segment<'_>], s: &SampleState, v: VertexId) -> bool {
        !s.contains(v)
    }

    #[inline]
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Alley
    }
}

/// Hand the built-in estimator of `kind` to `f` as a `&dyn Estimator`.
pub fn with_estimator<R>(kind: EstimatorKind, f: impl FnOnce(&dyn Estimator) -> R) -> R {
    match kind {
        EstimatorKind::WanderJoin => f(&WanderJoin),
        EstimatorKind::Alley => f(&Alley),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segs<'a>(a: &'a [VertexId], b: &'a [VertexId]) -> Vec<Segment<'a>> {
        vec![(a, 0), (b, 100)]
    }

    #[test]
    fn wanderjoin_validate_checks_all_segments() {
        let s1 = [1u32, 2, 5];
        let s2 = [2u32, 3, 5];
        let state = SampleState::new();
        let segs = segs(&s1, &s2);
        assert!(WanderJoin.validate(&segs, &state, 2));
        assert!(WanderJoin.validate(&segs, &state, 5));
        assert!(
            !WanderJoin.validate(&segs, &state, 1),
            "1 missing from second"
        );
        assert!(
            !WanderJoin.validate(&segs, &state, 3),
            "3 missing from first"
        );
    }

    #[test]
    fn wanderjoin_validate_rejects_duplicates() {
        let s1 = [1u32, 2];
        let mut state = SampleState::new();
        state.push(2, 1.0);
        assert!(!WanderJoin.validate(&[(&s1, 0)], &state, 2));
        assert!(WanderJoin.validate(&[(&s1, 0)], &state, 1));
    }

    #[test]
    fn alley_refine_equals_wj_edge_checks() {
        let s1 = [1u32, 2, 5];
        let s2 = [2u32, 3, 5];
        let state = SampleState::new();
        let segs = segs(&s1, &s2);
        for v in 0..6u32 {
            let alley = Alley.refine_one(&segs, v) && Alley.validate(&segs, &state, v);
            let wj = WanderJoin.validate(&segs, &state, v);
            assert_eq!(alley, wj, "estimators must agree on validity of v{v}");
        }
    }

    #[test]
    fn wj_refine_is_identity() {
        assert!(WanderJoin.refine_one(&[(&[], 0)], 7));
        assert!(!WanderJoin.needs_refine());
        assert!(Alley.needs_refine());
    }

    #[test]
    fn only_alley_declares_membership_refine() {
        assert!(Alley.refine_is_membership());
        assert!(!WanderJoin.refine_is_membership());
    }

    #[test]
    fn empty_segments_accept_everything() {
        // Root position: no backward constraints.
        let state = SampleState::new();
        assert!(WanderJoin.validate(&[], &state, 3));
        assert!(Alley.refine_one(&[], 3));
    }

    #[test]
    fn alley_refine_into_matches_per_element() {
        // The batched k-way Refine must keep the bit-identity guarantee:
        // same survivors, same order, as filtering with refine_one.
        let s1: Vec<VertexId> = (0..300).filter(|v| v % 2 == 0).collect();
        let s2: Vec<VertexId> = (0..300).filter(|v| v % 3 == 0).collect();
        let s3: Vec<VertexId> = (100..200).collect();
        let cand: Vec<VertexId> = (0..300).filter(|v| v % 5 == 0).collect();
        for segs in [
            vec![(&s1[..], 0)],
            vec![(&s1[..], 0), (&s2[..], 10)],
            vec![(&s1[..], 0), (&s2[..], 10), (&s3[..], 20)],
            vec![(&[][..], 0), (&s1[..], 0)],
            vec![],
        ] {
            let mut batched = Vec::new();
            Alley.refine_into(&segs, &cand, &mut batched);
            let want: Vec<VertexId> = cand
                .iter()
                .copied()
                .filter(|&v| Alley.refine_one(&segs, v))
                .collect();
            assert_eq!(batched, want, "segs={}", segs.len());
        }
    }

    #[test]
    fn default_refine_into_uses_refine_one() {
        // WanderJoin doesn't override refine_into: the provided method
        // passes everything through because WJ's refine_one always
        // accepts.
        let s1 = [1u32, 5];
        let cand = [0u32, 1, 5, 9];
        let mut out = Vec::new();
        WanderJoin.refine_into(&[(&s1, 0)], &cand, &mut out);
        assert_eq!(out, cand);
    }

    #[test]
    fn kinds() {
        assert_eq!(EstimatorKind::WanderJoin.short(), "WJ");
        assert_eq!(EstimatorKind::Alley.short(), "AL");
        with_estimator(EstimatorKind::Alley, |e| {
            assert_eq!(e.kind(), EstimatorKind::Alley);
        });
        with_estimator(EstimatorKind::WanderJoin, |e| {
            assert_eq!(e.kind(), EstimatorKind::WanderJoin);
        });
    }
}
