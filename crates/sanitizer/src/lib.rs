//! A `compute-sanitizer` analogue for the software SIMT device: synccheck.
//!
//! Real CUDA ships `compute-sanitizer`, whose tools catch the classes of
//! bugs the hardware model makes undefined rather than impossible. The
//! kernels of this workspace touch device memory in three ways only: they
//! read the candidate graph the host built, advance their block's sample
//! pool with an atomic, and talk across lanes through warp-synchronous
//! primitives. Reads never race reads and atomics never race atomics, so
//! the one lockstep hazard left is a bad participation mask — a stale
//! `WarpMask` passed to a `__shfl_sync`-style primitive — and nothing in a
//! functional simulation stops it from silently producing plausible
//! numbers. This crate is the checking layer for it, **synccheck**:
//!
//! * every warp-synchronous primitive validates that its declared
//!   participation mask is a subset of the lanes the executor actually
//!   has converged;
//! * `shfl` flags reads from out-of-range or non-participating source
//!   lanes.
//!
//! The handle is zero-cost when disabled: [`Sanitizer`] is an
//! `Option<Arc<..>>` and every hook starts with an inlined `None` check,
//! so kernels pay one branch per instrumentation point in normal runs.
//! Detailed violations are capped *per call site* ([`VIOLATION_CAP`],
//! keyed by [`ViolationKind::site`]) so one hot instrumentation point
//! cannot evict diagnostics from every other site; the total count keeps
//! incrementing past the cap, and the report is sorted into a
//! deterministic order.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Lanes per warp — mirrors `gsword_simt::WARP_SIZE` (this crate sits
/// below the simulator and cannot import it).
pub const WARP_SIZE: usize = 32;

const FULL_MASK: u32 = u32::MAX;

/// Maximum violations kept with full detail *per call site* (see
/// [`ViolationKind::site`]); the total count keeps incrementing past the
/// cap.
pub const VIOLATION_CAP: usize = 64;

/// Identity of the instrumentation point class that produced a violation:
/// the variant name plus the primitive name, with dynamic operands (masks,
/// lanes, warps) erased. The detail cap is applied per site.
pub type Site = (&'static str, &'static str);

/// What went wrong, with the operands the report needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A warp primitive declared lanes that are not actually converged.
    SyncMaskMismatch {
        primitive: &'static str,
        declared: u32,
        active: u32,
    },
    /// A warp primitive was invoked with an empty participation mask.
    SyncEmptyMask { primitive: &'static str },
    /// `shfl` read from a source lane outside the warp or outside the
    /// participating mask.
    ShflInvalidSource { src: usize, mask: u32 },
}

impl ViolationKind {
    /// The call-site class this violation belongs to, for the per-site
    /// detail cap: variant plus the primitive name. Two violations from
    /// the same primitive share a site even when their dynamic operands
    /// differ.
    pub fn site(&self) -> Site {
        match self {
            ViolationKind::SyncMaskMismatch { primitive, .. } => ("sync-mask-mismatch", primitive),
            ViolationKind::SyncEmptyMask { primitive } => ("sync-empty-mask", primitive),
            ViolationKind::ShflInvalidSource { .. } => ("shfl-invalid-source", "shfl"),
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::SyncMaskMismatch {
                primitive,
                declared,
                active,
            } => write!(
                f,
                "{primitive} declared mask {declared:#010x} but only lanes {active:#010x} are converged (stray {:#010x})",
                declared & !active
            ),
            ViolationKind::SyncEmptyMask { primitive } => {
                write!(f, "{primitive} invoked with an empty participation mask")
            }
            ViolationKind::ShflInvalidSource { src, mask } => write!(
                f,
                "shfl reads lane {src}, which is outside the participating mask {mask:#010x}"
            ),
        }
    }
}

/// One structured sanitizer finding: which kernel, which block and warp,
/// and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub kernel: String,
    pub block: usize,
    pub warp: usize,
    pub kind: ViolationKind,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[synccheck] kernel {} block {} warp {}: {}",
            self.kernel, self.block, self.warp, self.kind
        )
    }
}

/// Final result of a sanitized run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SanitizerReport {
    /// Kernel name the sanitizer was attached to.
    pub kernel: String,
    /// Violations kept in detail (at most [`VIOLATION_CAP`] per call
    /// site), sorted by (block, warp, description) for determinism across
    /// host threads.
    pub violations: Vec<Violation>,
    /// Total violations observed, including those past the cap.
    pub total: u64,
}

impl SanitizerReport {
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Fold another launch's report into this one (multi-launch runs such
    /// as the co-processing pipeline). Detailed violations stay capped at
    /// [`VIOLATION_CAP`] per call site; `total` keeps the exact count.
    pub fn merge(&mut self, other: &SanitizerReport) {
        if self.kernel.is_empty() {
            self.kernel = other.kernel.clone();
        }
        let mut per_site: HashMap<Site, usize> = HashMap::new();
        for v in &self.violations {
            *per_site.entry(v.kind.site()).or_default() += 1;
        }
        for v in &other.violations {
            let n = per_site.entry(v.kind.site()).or_default();
            if *n < VIOLATION_CAP {
                self.violations.push(v.clone());
                *n += 1;
            }
        }
        self.total += other.total;
    }
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "sanitizer: kernel {} clean", self.kernel);
        }
        writeln!(
            f,
            "sanitizer: kernel {}: {} violation(s)",
            self.kernel, self.total
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if self.total > self.violations.len() as u64 {
            writeln!(
                f,
                "  ... {} more (cap {} per call site)",
                self.total - self.violations.len() as u64,
                VIOLATION_CAP
            )?;
        }
        Ok(())
    }
}

/// Detailed violations plus the per-(site, block) counts enforcing the
/// record-time cap, kept under one lock so the count and the kept list
/// cannot drift apart. The cap is keyed by block as well as site so that
/// blocks executing on different host threads cannot steal each other's
/// detail budget in a thread-timing-dependent order; [`Sanitizer::report`]
/// re-applies the global per-site cap in ascending block order, which is
/// exactly the arrival order of a serial (block 0, 1, 2, …) execution.
#[derive(Debug, Default)]
struct Detail {
    kept: Vec<Violation>,
    per_site: HashMap<(Site, usize), usize>,
}

#[derive(Debug)]
struct Inner {
    kernel: String,
    detail: Mutex<Detail>,
    total: AtomicU64,
}

impl Inner {
    fn record(&self, block: usize, warp: usize, kind: ViolationKind) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut d = self.detail.lock().unwrap_or_else(PoisonError::into_inner);
        let seen = d.per_site.entry((kind.site(), block)).or_default();
        if *seen < VIOLATION_CAP {
            *seen += 1;
            d.kept.push(Violation {
                kernel: self.kernel.clone(),
                block,
                warp,
                kind,
            });
        }
    }
}

/// The sanitizer handle threaded through the device. Cloning is cheap
/// (`Arc`); the disabled handle is a `None` and every hook is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Sanitizer {
    inner: Option<Arc<Inner>>,
}

impl Sanitizer {
    /// Attach a sanitizer to a kernel; reports name it `kernel`.
    pub fn new(kernel: &str) -> Self {
        Sanitizer {
            inner: Some(Arc::new(Inner {
                kernel: kernel.to_string(),
                detail: Mutex::new(Detail::default()),
                total: AtomicU64::new(0),
            })),
        }
    }

    /// The disabled handle (same as `Default`).
    pub fn off() -> Self {
        Sanitizer { inner: None }
    }

    /// Is the sanitizer attached?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Scoped handle for one warp of one block. All lanes start converged,
    /// matching a kernel entry point.
    pub fn warp(&self, block: usize, warp: usize) -> WarpSanitizer {
        WarpSanitizer {
            inner: self.inner.clone(),
            block,
            warp,
            active: std::cell::Cell::new(FULL_MASK),
        }
    }

    /// Collect the final report. Violations are sorted into a
    /// deterministic order regardless of host-thread interleaving, and the
    /// global per-site cap of [`VIOLATION_CAP`] is applied in ascending
    /// block order — the arrival order of a serial execution — so the kept
    /// set is bit-identical however blocks were scheduled across threads.
    pub fn report(&self) -> SanitizerReport {
        let Some(inner) = &self.inner else {
            return SanitizerReport::default();
        };
        let mut kept = inner
            .detail
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .kept
            .clone();
        // Each block's violations were pushed by the one thread running
        // that block, so a stable sort by block restores the serial
        // arrival order (blocks ascending, program order within a block).
        kept.sort_by_key(|v| v.block);
        let mut per_site: HashMap<Site, usize> = HashMap::new();
        let mut violations = Vec::with_capacity(kept.len().min(VIOLATION_CAP));
        for v in kept {
            let seen = per_site.entry(v.kind.site()).or_default();
            if *seen < VIOLATION_CAP {
                *seen += 1;
                violations.push(v);
            }
        }
        violations.sort_by(|a, b| {
            (a.block, a.warp, format!("{}", a.kind)).cmp(&(b.block, b.warp, format!("{}", b.kind)))
        });
        SanitizerReport {
            kernel: inner.kernel.clone(),
            violations,
            total: inner.total.load(Ordering::Relaxed),
        }
    }
}

/// Per-(block, warp) sanitizer handle the simulator's primitives call
/// into. Single-threaded by construction (one warp executes on one host
/// thread), hence the `Cell` for the converged-lane mask.
#[derive(Debug)]
pub struct WarpSanitizer {
    inner: Option<Arc<Inner>>,
    block: usize,
    warp: usize,
    active: std::cell::Cell<u32>,
}

impl WarpSanitizer {
    /// A disabled handle for code paths without a device (unit tests,
    /// benches).
    pub fn disabled() -> Self {
        Sanitizer::off().warp(0, 0)
    }

    /// Declare the ground-truth converged lanes (the executor's knowledge
    /// of which lanes are really executing). Primitives' declared masks
    /// are validated against this.
    pub fn set_active(&self, mask: u32) {
        if self.inner.is_some() {
            self.active.set(mask);
        }
    }

    /// synccheck hook: a warp-synchronous primitive declared `mask`.
    #[inline]
    pub fn sync_op(&self, primitive: &'static str, mask: u32) {
        let Some(inner) = &self.inner else { return };
        if mask == 0 {
            inner.record(
                self.block,
                self.warp,
                ViolationKind::SyncEmptyMask { primitive },
            );
            return;
        }
        let active = self.active.get();
        if mask & !active != 0 {
            inner.record(
                self.block,
                self.warp,
                ViolationKind::SyncMaskMismatch {
                    primitive,
                    declared: mask,
                    active,
                },
            );
        }
    }

    /// synccheck hook for `shfl`'s source lane: flags out-of-range lanes
    /// (which real hardware silently wraps) and lanes outside the
    /// participating mask (whose value is undefined).
    #[inline]
    pub fn shfl_src(&self, mask: u32, src: usize) {
        let Some(inner) = &self.inner else { return };
        let wrapped = src % WARP_SIZE;
        if src >= WARP_SIZE || mask & (1 << wrapped) == 0 {
            inner.record(
                self.block,
                self.warp,
                ViolationKind::ShflInvalidSource { src, mask },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_silent() {
        let san = Sanitizer::off();
        assert!(!san.enabled());
        let ws = san.warp(0, 0);
        ws.set_active(0b1);
        ws.sync_op("ballot", 0);
        ws.sync_op("any", 0b11);
        ws.shfl_src(0, 99);
        assert!(san.report().is_clean());
        assert!(Sanitizer::new("k").enabled());
    }

    #[test]
    fn synccheck_flags_superset_masks() {
        let san = Sanitizer::new("k");
        let ws = san.warp(1, 2);
        ws.set_active(0b0111);
        ws.sync_op("ballot", 0b0011); // subset: fine
        ws.sync_op("any", 0b1111); // lane 3 not converged
        let rep = san.report();
        assert_eq!(rep.total, 1);
        assert_eq!(rep.violations[0].block, 1);
        assert_eq!(rep.violations[0].warp, 2);
        assert!(matches!(
            rep.violations[0].kind,
            ViolationKind::SyncMaskMismatch {
                declared: 0b1111,
                active: 0b0111,
                ..
            }
        ));
    }

    #[test]
    fn synccheck_flags_empty_mask() {
        let san = Sanitizer::new("k");
        let ws = san.warp(0, 0);
        ws.sync_op("reduce_sum", 0);
        assert_eq!(san.report().violations.len(), 1);
    }

    #[test]
    fn shfl_source_checks() {
        let san = Sanitizer::new("k");
        let ws = san.warp(0, 0);
        ws.shfl_src(FULL_MASK, 31); // in range, in mask
        ws.shfl_src(0b1, 40); // out of range (wraps to 8, also outside mask)
        ws.shfl_src(0b1, 5); // inactive source lane
        let rep = san.report();
        assert_eq!(rep.violations.len(), 2);
    }

    #[test]
    fn report_is_sorted_and_capped() {
        let san = Sanitizer::new("k");
        for block in (0..4).rev() {
            let ws = san.warp(block, 0);
            ws.set_active(0b1);
            for _ in 0..40 {
                ws.sync_op("ballot", 0b11);
            }
        }
        let rep = san.report();
        assert_eq!(rep.total, 160);
        assert_eq!(rep.violations.len(), VIOLATION_CAP);
        let blocks: Vec<usize> = rep.violations.iter().map(|v| v.block).collect();
        let mut sorted = blocks.clone();
        sorted.sort_unstable();
        assert_eq!(blocks, sorted);
        assert!(!rep.is_clean());
        assert!(format!("{rep}").contains("more (cap"));
    }

    #[test]
    fn cap_is_per_call_site() {
        let san = Sanitizer::new("k");
        let ws = san.warp(0, 0);
        ws.set_active(0b1);
        // Flood one site far past the cap...
        for _ in 0..VIOLATION_CAP * 3 {
            ws.sync_op("ballot", 0b11);
        }
        // ...then hit a different site once: it must still be kept in
        // detail rather than evicted by the flood.
        ws.sync_op("reduce_sum", 0);
        let rep = san.report();
        assert_eq!(rep.total, (VIOLATION_CAP * 3 + 1) as u64);
        assert_eq!(rep.violations.len(), VIOLATION_CAP + 1);
        assert!(
            rep.violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::SyncEmptyMask { primitive } if primitive == "reduce_sum")),
            "second call site was evicted by the first site's flood"
        );
    }

    #[test]
    fn merge_caps_per_site() {
        let make = |n_ballot: usize, n_empty: usize| {
            let san = Sanitizer::new("k");
            let ws = san.warp(0, 0);
            ws.set_active(0b1);
            for _ in 0..n_ballot {
                ws.sync_op("ballot", 0b11);
            }
            for _ in 0..n_empty {
                ws.sync_op("shfl", 0);
            }
            san.report()
        };
        let mut merged = make(VIOLATION_CAP, 1);
        merged.merge(&make(VIOLATION_CAP, 1));
        // The flooded site stays at its cap; the rare site keeps both
        // occurrences instead of losing the second to the flood.
        assert_eq!(merged.total, 2 * (VIOLATION_CAP + 1) as u64);
        assert_eq!(merged.violations.len(), VIOLATION_CAP + 2);
        let empties = merged
            .violations
            .iter()
            .filter(|v| matches!(v.kind, ViolationKind::SyncEmptyMask { .. }))
            .count();
        assert_eq!(empties, 2);
    }

    #[test]
    fn violations_render_operands() {
        let san = Sanitizer::new("rsv");
        let ws = san.warp(3, 1);
        ws.set_active(0b1);
        ws.sync_op("shfl", 0b11);
        let rep = san.report();
        let text = format!("{}", rep.violations[0]);
        assert!(text.contains("kernel rsv"), "{text}");
        assert!(text.contains("block 3"), "{text}");
        assert!(text.contains("warp 1"), "{text}");
        assert!(text.contains("synccheck"), "{text}");
    }
}
