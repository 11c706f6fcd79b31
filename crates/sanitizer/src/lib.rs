//! A `compute-sanitizer` analogue for the software SIMT device.
//!
//! Real CUDA ships `compute-sanitizer`, whose tools catch the classes of
//! bugs the hardware model makes undefined rather than impossible. The
//! software device in `gsword-simt` has the same undefined corners — a
//! stale `WarpMask` passed to `__shfl_sync`-style primitives, an
//! unsynchronized block-shared write, a read of a never-written device
//! word — and nothing in a functional simulation stops them from silently
//! producing plausible numbers. This crate is the checking layer:
//!
//! * **synccheck** — every warp-synchronous primitive validates that its
//!   declared participation mask is a subset of the lanes the executor
//!   actually has converged, and `shfl` flags reads from out-of-range or
//!   non-participating source lanes.
//! * **racecheck** — shadow state over device address spaces detects
//!   same-address write/write and read/write pairs from different warps
//!   of a block with no barrier in between (unless both are atomic).
//! * **initcheck** — registered device allocations start poisoned; a read
//!   of a word never written flags. Address spaces that are never
//!   registered are treated as host-initialized (the candidate graph) and
//!   stay silent.
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
/// the variant name plus its static operand (primitive name or address
/// space), with dynamic operands (addresses, lanes, warps) erased. The
/// detail cap is applied per site.
pub type Site = (&'static str, &'static str, Option<Space>);

/// Which checking tools are active (mirrors compute-sanitizer's
/// `--tool synccheck|racecheck|initcheck`, combinable here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SanitizerMode {
    pub synccheck: bool,
    pub racecheck: bool,
    pub initcheck: bool,
}

impl SanitizerMode {
    /// Everything off — the default.
    pub const OFF: SanitizerMode = SanitizerMode {
        synccheck: false,
        racecheck: false,
        initcheck: false,
    };

    /// All three tools on.
    pub const FULL: SanitizerMode = SanitizerMode {
        synccheck: true,
        racecheck: true,
        initcheck: true,
    };

    /// Is any tool active?
    pub fn any(&self) -> bool {
        self.synccheck || self.racecheck || self.initcheck
    }

    /// Parse a `--sanitize` argument value: `full` (or empty), `off`, or a
    /// comma-separated subset of `sync`, `race`, `init`.
    pub fn parse(s: &str) -> Result<SanitizerMode, String> {
        match s {
            "" | "full" | "all" => return Ok(SanitizerMode::FULL),
            "off" | "none" => return Ok(SanitizerMode::OFF),
            _ => {}
        }
        let mut mode = SanitizerMode::OFF;
        for part in s.split(',') {
            match part.trim() {
                "sync" | "synccheck" => mode.synccheck = true,
                "race" | "racecheck" => mode.racecheck = true,
                "init" | "initcheck" => mode.initcheck = true,
                other => {
                    return Err(format!(
                        "unknown sanitizer tool {other:?} (expected sync, race, init, full, off)"
                    ))
                }
            }
        }
        Ok(mode)
    }
}

/// A distinct device address space the sanitizer shadows. `Region(r)`
/// mirrors `gsword_simt::Region`'s index; `Pool(b)` is block `b`'s sample
/// pool counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Space {
    Region(u32),
    Pool(u32),
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Space::Region(r) => write!(f, "region {r}"),
            Space::Pool(b) => write!(f, "pool of block {b}"),
        }
    }
}

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
    /// Two warps wrote the same word with no barrier in between.
    WriteWriteRace {
        space: Space,
        addr: usize,
        other_warp: usize,
    },
    /// A read and a write of the same word from different warps with no
    /// barrier in between.
    ReadWriteRace {
        space: Space,
        addr: usize,
        other_warp: usize,
    },
    /// A read of a device word that was never written.
    UninitRead { space: Space, addr: usize },
}

impl ViolationKind {
    /// The call-site class this violation belongs to, for the per-site
    /// detail cap: variant plus the primitive name or address space. Two
    /// violations from the same primitive (or the same racing space) share
    /// a site even when their dynamic operands differ.
    pub fn site(&self) -> Site {
        match self {
            ViolationKind::SyncMaskMismatch { primitive, .. } => {
                ("sync-mask-mismatch", primitive, None)
            }
            ViolationKind::SyncEmptyMask { primitive } => ("sync-empty-mask", primitive, None),
            ViolationKind::ShflInvalidSource { .. } => ("shfl-invalid-source", "shfl", None),
            ViolationKind::WriteWriteRace { space, .. } => ("write-write-race", "", Some(*space)),
            ViolationKind::ReadWriteRace { space, .. } => ("read-write-race", "", Some(*space)),
            ViolationKind::UninitRead { space, .. } => ("uninit-read", "", Some(*space)),
        }
    }

    /// Which tool produced this violation.
    pub fn tool(&self) -> &'static str {
        match self {
            ViolationKind::SyncMaskMismatch { .. }
            | ViolationKind::SyncEmptyMask { .. }
            | ViolationKind::ShflInvalidSource { .. } => "synccheck",
            ViolationKind::WriteWriteRace { .. } | ViolationKind::ReadWriteRace { .. } => {
                "racecheck"
            }
            ViolationKind::UninitRead { .. } => "initcheck",
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
            ViolationKind::WriteWriteRace {
                space,
                addr,
                other_warp,
            } => write!(
                f,
                "write/write race on {space} word {addr} (previous writer: warp {other_warp})"
            ),
            ViolationKind::ReadWriteRace {
                space,
                addr,
                other_warp,
            } => write!(
                f,
                "read/write race on {space} word {addr} (conflicting warp {other_warp})"
            ),
            ViolationKind::UninitRead { space, addr } => {
                write!(f, "read of uninitialized {space} word {addr}")
            }
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
            "[{}] kernel {} block {} warp {}: {}",
            self.kind.tool(),
            self.kernel,
            self.block,
            self.warp,
            self.kind
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

    /// Violations produced by one tool.
    pub fn count_for(&self, tool: &str) -> usize {
        self.violations
            .iter()
            .filter(|v| v.kind.tool() == tool)
            .count()
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

/// Racecheck's memory of the last conflicting accesses to one word.
#[derive(Debug, Clone, Copy)]
struct Access {
    warp: usize,
    epoch: u64,
    atomic: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct WordState {
    last_writer: Option<Access>,
    last_reader: Option<Access>,
}

/// Per-block shadow state: the barrier epoch and per-word access history.
#[derive(Debug, Default)]
struct BlockShadow {
    epoch: u64,
    words: HashMap<(Space, usize), WordState>,
}

/// Initcheck shadow for one registered device allocation.
#[derive(Debug)]
struct InitShadow {
    len: usize,
    written: Vec<u64>,
}

impl InitShadow {
    fn new(len: usize) -> Self {
        InitShadow {
            len,
            written: vec![0; len.div_ceil(64)],
        }
    }

    fn mark(&mut self, addr: usize) {
        if addr < self.len {
            self.written[addr / 64] |= 1 << (addr % 64);
        }
    }

    fn is_written(&self, addr: usize) -> bool {
        addr < self.len && self.written[addr / 64] & (1 << (addr % 64)) != 0
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
    mode: SanitizerMode,
    kernel: String,
    detail: Mutex<Detail>,
    total: AtomicU64,
    blocks: Mutex<HashMap<usize, BlockShadow>>,
    allocs: Mutex<HashMap<Space, InitShadow>>,
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
    /// Attach a sanitizer in `mode` to a kernel. `SanitizerMode::OFF`
    /// yields the disabled (zero-cost) handle.
    pub fn new(mode: SanitizerMode, kernel: &str) -> Self {
        if !mode.any() {
            return Sanitizer { inner: None };
        }
        Sanitizer {
            inner: Some(Arc::new(Inner {
                mode,
                kernel: kernel.to_string(),
                detail: Mutex::new(Detail::default()),
                total: AtomicU64::new(0),
                blocks: Mutex::new(HashMap::new()),
                allocs: Mutex::new(HashMap::new()),
            })),
        }
    }

    /// The disabled handle (same as `Default`).
    pub fn off() -> Self {
        Sanitizer { inner: None }
    }

    /// Is any tool active?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Active mode (`OFF` when disabled).
    pub fn mode(&self) -> SanitizerMode {
        self.inner.as_ref().map_or(SanitizerMode::OFF, |i| i.mode)
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

    /// Register a device allocation of `len` words in `space` for
    /// initcheck: every word starts poisoned until written. Spaces never
    /// registered are treated as host-initialized and are not checked.
    pub fn region_alloc(&self, space: Space, len: usize) {
        let Some(inner) = &self.inner else { return };
        if !inner.mode.initcheck {
            return;
        }
        inner
            .allocs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(space, InitShadow::new(len));
    }

    /// A block-wide barrier (`__syncthreads` analogue): orders all prior
    /// accesses of `block` before all later ones for racecheck.
    pub fn block_barrier(&self, block: usize) {
        let Some(inner) = &self.inner else { return };
        if !inner.mode.racecheck {
            return;
        }
        let mut blocks = inner.blocks.lock().unwrap_or_else(PoisonError::into_inner);
        blocks.entry(block).or_default().epoch += 1;
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

    /// Is any tool active?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Block this handle belongs to.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Declare the ground-truth converged lanes (the executor's knowledge
    /// of which lanes are really executing). Primitives' declared masks
    /// are validated against this.
    pub fn set_active(&self, mask: u32) {
        if self.inner.is_some() {
            self.active.set(mask);
        }
    }

    /// Currently declared converged lanes.
    pub fn active(&self) -> u32 {
        self.active.get()
    }

    /// synccheck hook: a warp-synchronous primitive declared `mask`.
    #[inline]
    pub fn sync_op(&self, primitive: &'static str, mask: u32) {
        let Some(inner) = &self.inner else { return };
        if !inner.mode.synccheck {
            return;
        }
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
        if !inner.mode.synccheck {
            return;
        }
        let wrapped = src % WARP_SIZE;
        if src >= WARP_SIZE || mask & (1 << wrapped) == 0 {
            inner.record(
                self.block,
                self.warp,
                ViolationKind::ShflInvalidSource { src, mask },
            );
        }
    }

    /// Memory hook: one lane read a word.
    #[inline]
    pub fn mem_read(&self, space: Space, addr: usize) {
        self.mem_access(space, addr, false, false);
    }

    /// Memory hook: one lane wrote a word.
    #[inline]
    pub fn mem_write(&self, space: Space, addr: usize) {
        self.mem_access(space, addr, true, false);
    }

    /// Memory hook: an atomic read-modify-write of a word. Atomics never
    /// race with other atomics, but still race with plain accesses.
    #[inline]
    pub fn mem_atomic(&self, space: Space, addr: usize) {
        self.mem_access(space, addr, true, true);
    }

    fn mem_access(&self, space: Space, addr: usize, write: bool, atomic: bool) {
        let Some(inner) = &self.inner else { return };
        if inner.mode.initcheck {
            let mut allocs = inner.allocs.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(shadow) = allocs.get_mut(&space) {
                if write {
                    shadow.mark(addr);
                } else if !shadow.is_written(addr) {
                    drop(allocs);
                    inner.record(
                        self.block,
                        self.warp,
                        ViolationKind::UninitRead { space, addr },
                    );
                }
            }
        }
        if !inner.mode.racecheck {
            return;
        }
        let mut hazards: Vec<ViolationKind> = Vec::new();
        {
            let mut blocks = inner.blocks.lock().unwrap_or_else(PoisonError::into_inner);
            let shadow = blocks.entry(self.block).or_default();
            let epoch = shadow.epoch;
            let me = Access {
                warp: self.warp,
                epoch,
                atomic,
            };
            let word = shadow.words.entry((space, addr)).or_default();
            let conflicts = |other: &Access| {
                other.epoch == epoch && other.warp != self.warp && !(other.atomic && atomic)
            };
            if write {
                if let Some(w) = word.last_writer.filter(conflicts) {
                    hazards.push(ViolationKind::WriteWriteRace {
                        space,
                        addr,
                        other_warp: w.warp,
                    });
                }
                if let Some(r) = word.last_reader.filter(conflicts) {
                    hazards.push(ViolationKind::ReadWriteRace {
                        space,
                        addr,
                        other_warp: r.warp,
                    });
                }
                word.last_writer = Some(me);
            } else {
                if let Some(w) = word.last_writer.filter(conflicts) {
                    hazards.push(ViolationKind::ReadWriteRace {
                        space,
                        addr,
                        other_warp: w.warp,
                    });
                }
                word.last_reader = Some(me);
            }
        }
        for kind in hazards {
            inner.record(self.block, self.warp, kind);
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
        ws.sync_op("ballot", 0);
        ws.shfl_src(0, 99);
        ws.mem_read(Space::Region(0), 7);
        assert!(san.report().is_clean());
    }

    #[test]
    fn off_mode_yields_disabled_handle() {
        let san = Sanitizer::new(SanitizerMode::OFF, "k");
        assert!(!san.enabled());
    }

    #[test]
    fn synccheck_flags_superset_masks() {
        let san = Sanitizer::new(SanitizerMode::FULL, "k");
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
        let san = Sanitizer::new(SanitizerMode::FULL, "k");
        let ws = san.warp(0, 0);
        ws.sync_op("reduce_sum", 0);
        assert_eq!(san.report().count_for("synccheck"), 1);
    }

    #[test]
    fn shfl_source_checks() {
        let san = Sanitizer::new(SanitizerMode::FULL, "k");
        let ws = san.warp(0, 0);
        ws.shfl_src(FULL_MASK, 31); // in range, in mask
        ws.shfl_src(0b1, 40); // out of range (wraps to 8, also outside mask)
        ws.shfl_src(0b1, 5); // inactive source lane
        let rep = san.report();
        assert_eq!(rep.count_for("synccheck"), 2);
    }

    #[test]
    fn racecheck_write_write() {
        let san = Sanitizer::new(SanitizerMode::FULL, "k");
        let w0 = san.warp(0, 0);
        let w1 = san.warp(0, 1);
        w0.mem_write(Space::Region(2), 10);
        w1.mem_write(Space::Region(2), 10);
        let rep = san.report();
        assert_eq!(rep.total, 1);
        assert!(matches!(
            rep.violations[0].kind,
            ViolationKind::WriteWriteRace { addr: 10, .. }
        ));
    }

    #[test]
    fn racecheck_read_write_both_orders() {
        let san = Sanitizer::new(SanitizerMode::FULL, "k");
        let w0 = san.warp(0, 0);
        let w1 = san.warp(0, 1);
        w0.mem_read(Space::Region(2), 4);
        w1.mem_write(Space::Region(2), 4); // write after read
        w0.mem_read(Space::Region(2), 4); // read after write
        assert_eq!(san.report().count_for("racecheck"), 2);
    }

    #[test]
    fn racecheck_same_warp_is_program_ordered() {
        let san = Sanitizer::new(SanitizerMode::FULL, "k");
        let ws = san.warp(0, 0);
        ws.mem_write(Space::Region(2), 3);
        ws.mem_write(Space::Region(2), 3);
        ws.mem_read(Space::Region(2), 3);
        assert!(san.report().is_clean());
    }

    #[test]
    fn racecheck_atomics_do_not_race_each_other() {
        let san = Sanitizer::new(SanitizerMode::FULL, "k");
        let w0 = san.warp(0, 0);
        let w1 = san.warp(0, 1);
        w0.mem_atomic(Space::Pool(0), 0);
        w1.mem_atomic(Space::Pool(0), 0);
        assert!(san.report().is_clean());
        // ... but a plain read against another warp's atomic write races.
        w0.mem_read(Space::Pool(0), 0);
        assert_eq!(san.report().count_for("racecheck"), 1);
    }

    #[test]
    fn racecheck_barrier_separates_epochs() {
        let san = Sanitizer::new(SanitizerMode::FULL, "k");
        let w0 = san.warp(0, 0);
        let w1 = san.warp(0, 1);
        w0.mem_write(Space::Region(2), 8);
        san.block_barrier(0);
        w1.mem_write(Space::Region(2), 8);
        assert!(san.report().is_clean());
        // Barriers are per block: block 1 traffic is independent.
        let o0 = san.warp(1, 0);
        let o1 = san.warp(1, 1);
        o0.mem_write(Space::Region(2), 8);
        o1.mem_write(Space::Region(2), 8);
        assert_eq!(san.report().total, 1);
    }

    #[test]
    fn initcheck_poisons_registered_allocations() {
        let san = Sanitizer::new(SanitizerMode::FULL, "k");
        san.region_alloc(Space::Region(4), 16);
        let ws = san.warp(0, 0);
        ws.mem_read(Space::Region(0), 3); // unregistered: host-initialized
        ws.mem_read(Space::Region(4), 3); // poisoned
        ws.mem_write(Space::Region(4), 3);
        ws.mem_read(Space::Region(4), 3); // now initialized
        let rep = san.report();
        assert_eq!(rep.count_for("initcheck"), 1);
        assert!(matches!(
            rep.violations[0].kind,
            ViolationKind::UninitRead { addr: 3, .. }
        ));
    }

    #[test]
    fn report_is_sorted_and_capped() {
        let san = Sanitizer::new(SanitizerMode::FULL, "k");
        for block in (0..4).rev() {
            let ws = san.warp(block, 0);
            for addr in 0..40 {
                let other = san.warp(block, 1);
                other.mem_write(Space::Region(2), addr);
                ws.mem_write(Space::Region(2), addr);
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
        let san = Sanitizer::new(SanitizerMode::FULL, "k");
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
            let san = Sanitizer::new(SanitizerMode::FULL, "k");
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
    fn mode_parsing() {
        assert_eq!(SanitizerMode::parse("full").unwrap(), SanitizerMode::FULL);
        assert_eq!(SanitizerMode::parse("").unwrap(), SanitizerMode::FULL);
        assert_eq!(SanitizerMode::parse("off").unwrap(), SanitizerMode::OFF);
        let m = SanitizerMode::parse("sync,init").unwrap();
        assert!(m.synccheck && m.initcheck && !m.racecheck);
        assert!(SanitizerMode::parse("bogus").is_err());
    }

    #[test]
    fn violations_render_operands() {
        let san = Sanitizer::new(SanitizerMode::FULL, "rsv");
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
