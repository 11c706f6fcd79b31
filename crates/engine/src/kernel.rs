//! The warp-level RSV kernel (Algorithms 1–3).
//!
//! Kernels are written at warp granularity: every "instruction" is a loop
//! over the 32-lane arrays, cross-lane communication goes through the warp
//! primitives, and every candidate-graph access is charged to the
//! coalescing memory model. Functional results (the HT estimate) are exact;
//! counters drive the modeled device time.
//!
//! This module defines *what* runs: [`run_block`] executes one block of
//! gSWORD's RSV kernel under any flag combination, the NextDoor-style
//! static/iteration-sync baseline being one flag shape. *Where and when*
//! blocks run — devices, streams, shards — is the [`crate::runtime`]
//! module's job.

use std::ops::Range;

use gsword_estimators::{Estimate, Estimator, QueryCtx, SampleState, Segment};
use gsword_graph::{intersect, VertexId};
use gsword_simt::memory::{
    warp_load, warp_load_round, warp_load_rounds, warp_load_runs, warp_load_steps, warp_scan,
    LaneAddr,
};
use gsword_simt::warp::{self, Lanes, WarpMask};
use gsword_simt::{Device, KernelCounters, Region, SamplePool, WarpSanitizer, WARP_SIZE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{EngineConfig, PoolMode, SyncMode};
use crate::runtime::split_budget;

/// Kernel name reported by the sanitizer and the profiler, derived from
/// the configured discipline and optimizations (mirrors
/// compute-sanitizer's per-kernel attribution). The NextDoor flag shape —
/// static pool, iteration sync, no inheritance, no streaming — is named
/// as the baseline it reproduces.
pub(crate) fn kernel_name(cfg: &EngineConfig) -> String {
    if cfg.pool == PoolMode::Static
        && cfg.sync == SyncMode::IterationSync
        && !cfg.inheritance
        && !cfg.streaming
    {
        return "nextdoor_static+iter-sync".to_string();
    }
    let sync = match cfg.sync {
        SyncMode::SampleSync => "sample-sync",
        SyncMode::IterationSync => "iter-sync",
    };
    let mut name = format!("rsv_{sync}");
    if cfg.inheritance {
        name.push_str("+inherit");
    }
    if cfg.streaming {
        name.push_str("+stream");
    }
    name
}

/// What one block returns: its estimate, the counters it charged, and how
/// many samples it started as inherited continuations.
pub(crate) type BlockOut = (Estimate, KernelCounters, u64);

/// Execute one block of the RSV kernel: `block` is the *global* block id,
/// `block_samples` the block's quota from the global [`split_budget`], and
/// `seed` the base seed.
pub(crate) fn run_block<E: Estimator + ?Sized>(
    ctx: &QueryCtx<'_>,
    est: &E,
    cfg: &EngineConfig,
    device: &Device,
    block: usize,
    block_samples: u64,
    seed: u64,
) -> BlockOut {
    let warps = cfg.device.warps_per_block();
    let pool = SamplePool::new(block_samples);
    let mut estimate = Estimate::default();
    let mut counters = KernelCounters::default();
    let mut inherited = 0u64;

    // Static mode: pre-split the block's share across warps (and lanes
    // inside the warp executor) — the NextDoor-style assignment.
    let warp_quota = split_budget(block_samples, warps);

    // The block's warps run one after another, so one executor serves
    // them all: `start_warp` reseeds its lanes and zeroes its tallies, and
    // the lane tables keep their allocations.
    let mut exec = WarpExec::new(ctx, est, cfg, block, seed);
    for (w, &quota) in warp_quota.iter().enumerate() {
        exec.start_warp(device.warp_sanitizer(block, w), w);
        match cfg.pool {
            PoolMode::BlockPool => exec.run(Tasks::pool(&pool)),
            PoolMode::Static => exec.run(Tasks::static_split(quota)),
        }
        estimate.merge(&exec.finish_estimate());
        counters.merge(&exec.ctr);
        inherited += exec.inherited;
    }
    (estimate, counters, inherited)
}

/// Task source for a warp: the block pool or static per-lane quotas.
#[allow(clippy::large_enum_variant)] // short-lived, one per warp execution
enum Tasks<'p> {
    Pool(&'p SamplePool),
    Static { remaining: [u64; WARP_SIZE] },
}

impl<'p> Tasks<'p> {
    fn pool(p: &'p SamplePool) -> Self {
        Tasks::Pool(p)
    }

    fn static_split(quota: u64) -> Self {
        let per_lane = quota / WARP_SIZE as u64;
        let rem = (quota % WARP_SIZE as u64) as usize;
        let mut remaining = [per_lane; WARP_SIZE];
        for slot in remaining.iter_mut().take(rem) {
            *slot += 1;
        }
        Tasks::Static { remaining }
    }

    /// Try to hand lane `lane` a new sample task.
    fn fetch(&mut self, lane: usize) -> bool {
        match self {
            Tasks::Pool(p) => p.fetch().is_some(),
            Tasks::Static { remaining } => {
                if remaining[lane] > 0 {
                    remaining[lane] -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Iterate the set lane indices of a mask.
#[inline]
fn lanes_of(mask: WarpMask) -> impl Iterator<Item = usize> {
    (0..WARP_SIZE).filter(move |&i| mask & (1 << i) != 0)
}

/// Per-iteration candidate information of one lane.
#[derive(Clone, Copy)]
struct LaneCand<'a> {
    cand: &'a [VertexId],
    addr: usize,
    region: Region,
}

/// Warp executor: owns lane RNGs, scratch, and counter state for the warp
/// it runs, one warp of a block at a time ([`WarpExec::start_warp`]).
struct WarpExec<'e, 'c, E: ?Sized> {
    ctx: &'e QueryCtx<'c>,
    est: &'e E,
    cfg: &'e EngineConfig,
    /// The block index and launch seed the lane RNG streams derive from.
    block: usize,
    seed: u64,
    rng: Vec<SmallRng>,
    ctr: KernelCounters,
    /// Per-warp sanitizer handle (the disabled handle unless the engine
    /// was configured with `sanitize`).
    san: WarpSanitizer,
    weight_sum: f64,
    weight_sq_sum: f64,
    leaves: u64,
    fetched: u64,
    /// Inherited continuations started (Algorithm 2 events × idle lanes) —
    /// the paper counts these as collected samples.
    inherited: u64,
    /// Per-lane refined-candidate buffers (device "scratch" memory).
    scratch: Vec<Vec<VertexId>>,
    /// Per-lane backward segments, resolved once per iteration.
    segs: Vec<Vec<Segment<'c>>>,
    /// Per-lane index into `segs` of the minimum segment, the one the
    /// lane's candidates were drawn from (unset at the root position).
    min_seg: [usize; WARP_SIZE],
    /// Per-lane gallop cursors, one per backward segment, reset at every
    /// refine call. Candidates scan in ascending order, so each cursor
    /// advances monotonically through its segment — the engine's actual
    /// probe pattern, which the memory model is charged with.
    cursors: Vec<Vec<usize>>,
    /// Per-lane probe element addresses recorded by the current
    /// collaborative-phase round or Validate step, drained in lockstep
    /// rounds by [`WarpExec::charge_recorded_probes`].
    /// [`WarpExec::scan_lanes`] records a lane's whole Refine scan here
    /// instead, cut into steps by `probe_steps`.
    probe_bufs: Vec<Vec<usize>>,
    /// Per-lane probe counts of a Refine scan, one per candidate scanned:
    /// the lockstep steps of the lane's `probe_bufs`.
    probe_steps: Vec<Vec<u32>>,
}

impl<'e, 'c, E: Estimator + ?Sized> WarpExec<'e, 'c, E> {
    /// An executor for block `block`'s warps; [`WarpExec::start_warp`]
    /// puts it on one.
    fn new(
        ctx: &'e QueryCtx<'c>,
        est: &'e E,
        cfg: &'e EngineConfig,
        block: usize,
        seed: u64,
    ) -> Self {
        WarpExec {
            ctx,
            est,
            cfg,
            block,
            seed,
            rng: Vec::with_capacity(WARP_SIZE),
            ctr: KernelCounters::default(),
            san: WarpSanitizer::disabled(),
            weight_sum: 0.0,
            weight_sq_sum: 0.0,
            leaves: 0,
            fetched: 0,
            inherited: 0,
            scratch: (0..WARP_SIZE).map(|_| Vec::new()).collect(),
            segs: (0..WARP_SIZE).map(|_| Vec::new()).collect(),
            min_seg: [0; WARP_SIZE],
            cursors: (0..WARP_SIZE).map(|_| Vec::new()).collect(),
            probe_bufs: (0..WARP_SIZE).map(|_| Vec::new()).collect(),
            probe_steps: (0..WARP_SIZE).map(|_| Vec::new()).collect(),
        }
    }

    /// Start warp `warp` of the block under `san`: reseed every lane's RNG
    /// from its (block, warp, lane) stream and zero the counters and
    /// estimate tallies. The lane tables are left as they are; every use
    /// clears or overwrites a lane's entry first.
    fn start_warp(&mut self, san: WarpSanitizer, warp: usize) {
        let (block, seed) = (self.block, self.seed);
        self.rng.clear();
        self.rng.extend((0..WARP_SIZE).map(|lane| {
            let stream = (block as u64) << 32 | (warp as u64) << 8 | lane as u64;
            SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
        }));
        self.san = san;
        self.ctr = KernelCounters::default();
        self.weight_sum = 0.0;
        self.weight_sq_sum = 0.0;
        self.leaves = 0;
        self.fetched = 0;
        self.inherited = 0;
    }

    fn finish_estimate(&self) -> Estimate {
        Estimate {
            weight_sum: self.weight_sum,
            weight_sq_sum: self.weight_sq_sum,
            samples: self.fetched,
            valid: self.leaves,
        }
    }

    fn run(&mut self, mut tasks: Tasks<'_>) {
        match self.cfg.sync {
            SyncMode::SampleSync => self.run_sample_sync(&mut tasks),
            SyncMode::IterationSync => self.run_iteration_sync(&mut tasks),
        }
    }

    // ------------------------------------------------------------------
    // Sample synchronization (Algorithm 1; + Algorithms 2 and 3 when the
    // inheritance/streaming flags are on).
    // ------------------------------------------------------------------
    fn run_sample_sync(&mut self, tasks: &mut Tasks<'_>) {
        loop {
            let mut s: Lanes<SampleState> = [SampleState::new(); WARP_SIZE];
            let mut mask: WarpMask = 0;
            for lane in 0..WARP_SIZE {
                if tasks.fetch(lane) {
                    mask |= 1 << lane;
                    self.fetched += 1;
                }
            }
            if mask == 0 {
                break;
            }
            self.ctr.warp_instruction(mask); // the FetchSampleTask atomic

            for d in 0..self.ctx.len() {
                if mask == 0 {
                    break;
                }
                mask = self.rsv_iteration(&mut s, mask, d);
            }
            for lane in lanes_of(mask) {
                let w = s[lane].ht_weight();
                self.weight_sum += w;
                self.weight_sq_sum += w * w;
                self.leaves += 1;
            }
        }
    }

    /// One lockstep RSV iteration for all active lanes at position `d`.
    /// Returns the mask of lanes still alive afterwards.
    fn rsv_iteration(&mut self, s: &mut Lanes<SampleState>, mask: WarpMask, d: usize) -> WarpMask {
        // Declare warp convergence: `mask` is the executor's ground truth
        // for which lanes participate in this iteration's `*_sync` ops.
        self.san.set_active(mask);
        // --- GetMinCandidate: resolve backward segments per lane ---------
        let mut cand: Lanes<Option<LaneCand<'c>>> = [None; WARP_SIZE];
        for lane in lanes_of(mask) {
            cand[lane] = Some(self.resolve_lane(lane, s[lane].prefix(), d));
        }
        if self.ctx.backward(d).is_empty() {
            self.ctr.warp_instruction(mask); // the root has no lookup
        } else {
            self.charge_get_min(mask);
        }

        // --- Refine + Sample ---------------------------------------------
        // Positions without backward constraints (the root) have an
        // identity Refine: sample straight from the candidate set.
        let mut chosen: Lanes<Option<(VertexId, f64)>> = [None; WARP_SIZE];
        if self.est.needs_refine() && !self.ctx.backward(d).is_empty() {
            if self.cfg.streaming {
                self.streaming_refine_sample(mask, &cand, &mut chosen);
            } else {
                self.serial_refine_sample(mask, &cand, &mut chosen);
            }
        } else {
            self.direct_sample(mask, &cand, &mut chosen);
        }

        // --- Validate ------------------------------------------------------
        let mut valid = [false; WARP_SIZE];
        for lane in lanes_of(mask) {
            if let Some((v, _)) = chosen[lane] {
                valid[lane] = self.est.validate(&self.segs[lane], &s[lane], v);
            }
        }
        self.charge_validate(mask, &chosen);
        for lane in lanes_of(mask) {
            if valid[lane] {
                let (v, p) = chosen[lane].expect("valid lane has a sampled vertex");
                s[lane].push(v, p);
            }
        }

        // --- Sample inheritance (Algorithm 2) -----------------------------
        let valid_ballot = warp::ballot(&mut self.ctr, &self.san, mask, &valid);
        if self.cfg.inheritance && valid_ballot != 0 && valid_ballot != mask {
            let parent = warp::first_lane(valid_ballot).expect("non-empty ballot");
            let idle = (mask & !valid_ballot).count_ones();
            // Recursive-estimator adjustment: idle+1 lanes continue from the
            // parent's partial instance, so each continuation is averaged
            // (the paper's Algorithm 2 line 5; see DESIGN.md for the
            // direction of the adjustment).
            s[parent].prob *= f64::from(idle + 1);
            self.inherited += u64::from(idle);
            let ps = warp::shfl(&mut self.ctr, &self.san, mask, s, parent);
            for lane in lanes_of(mask & !valid_ballot) {
                s[lane] = ps;
            }
            mask
        } else {
            valid_ballot
        }
    }

    /// WanderJoin's Sample step: uniform draw from the minimum candidate
    /// set, one element load per lane.
    fn direct_sample(
        &mut self,
        mask: WarpMask,
        cand: &Lanes<Option<LaneCand<'c>>>,
        chosen: &mut Lanes<Option<(VertexId, f64)>>,
    ) {
        let mut addrs: Lanes<LaneAddr> = [None; WARP_SIZE];
        for lane in lanes_of(mask) {
            let lc = cand[lane].expect("active lane has candidates resolved");
            if lc.cand.is_empty() {
                continue;
            }
            let idx = self.rng[lane].gen_range(0..lc.cand.len());
            chosen[lane] = Some((lc.cand[idx], 1.0 / lc.cand.len() as f64));
            addrs[lane] = Some((lc.region, lc.addr + idx));
        }
        warp_load(&mut self.ctr, &addrs);
    }

    /// Warp streaming (Algorithm 3): collaborative phase streams any lane's
    /// ≥32-candidate workload across the whole warp feeding an A-Res
    /// weighted reservoir; the independent phase drains the rest per lane.
    fn streaming_refine_sample(
        &mut self,
        mask: WarpMask,
        cand: &Lanes<Option<LaneCand<'c>>>,
        chosen: &mut Lanes<Option<(VertexId, f64)>>,
    ) {
        let mut cur_iter = [0usize; WARP_SIZE];
        let mut cur_v: Lanes<Option<VertexId>> = [None; WARP_SIZE];
        let mut cur_total = [0.0f64; WARP_SIZE];

        let clen = |lane: usize| cand[lane].map_or(0, |c| c.cand.len());

        // --- Collaborative phase -------------------------------------------
        loop {
            let mut pred = [false; WARP_SIZE];
            for lane in lanes_of(mask) {
                pred[lane] = clen(lane) - cur_iter[lane] >= WARP_SIZE;
            }
            if !warp::any(&mut self.ctr, &self.san, mask, &pred) {
                break;
            }
            let leader = warp::first_lane(warp::ballot(&mut self.ctr, &self.san, mask, &pred))
                .expect("any() guaranteed a qualifying lane");
            let lc = cand[leader].expect("leader is active");
            let base = cur_iter[leader];

            // All 32 physical lanes serve as workers on the leader's chunk
            // (shfl of the leader's sample and candidate pointer). The warp
            // reconverges to the full mask for the collaborative section.
            self.san.set_active(u32::MAX);
            self.ctr.warp_instruction(u32::MAX); // the two shfl broadcasts
            warp_scan(&mut self.ctr, u32::MAX, lc.addr + base, WARP_SIZE);
            let searched = self.charge_streaming_probes(leader, lc.cand, base);

            let mut keys = [0.0f64; WARP_SIZE];
            let mut pass = [false; WARP_SIZE];
            for t in 0..WARP_SIZE {
                if self.refines(leader, lc.cand[base + t], searched[t]) {
                    pass[t] = true;
                    // A-Res key for unit weight: r^(1/1) = r.
                    keys[t] = self.rng[t].gen::<f64>();
                }
            }
            let total_w = f64::from(warp::reduce_count(
                &mut self.ctr,
                &self.san,
                u32::MAX,
                &pass,
            ));
            if total_w > 0.0 {
                let winner = warp::reduce_max_by_key(&mut self.ctr, &self.san, u32::MAX, &keys)
                    .expect("full mask reduction");
                let v_star = lc.cand[base + winner];
                cur_total[leader] += total_w;
                if self.rng[leader].gen::<f64>() < total_w / cur_total[leader] {
                    cur_v[leader] = Some(v_star);
                }
            } else {
                self.ctr.warp_instruction(u32::MAX);
            }
            // Back to the divergent per-sample mask for the next round's
            // `any`/`ballot`.
            self.san.set_active(mask);
            cur_iter[leader] = base + WARP_SIZE;
        }

        // --- Independent phase ---------------------------------------------
        // Each lane drains its fewer than 32 leftover candidates into its
        // own reservoir, drawing from its own RNG stream.
        self.scan_lanes(mask, cand, &cur_iter, |exec, lane, v| {
            cur_total[lane] += 1.0;
            if exec.rng[lane].gen::<f64>() < 1.0 / cur_total[lane] {
                cur_v[lane] = Some(v);
            }
        });

        for lane in lanes_of(mask) {
            if let Some(v) = cur_v[lane] {
                debug_assert!(cur_total[lane] >= 1.0);
                chosen[lane] = Some((v, 1.0 / cur_total[lane]));
            }
        }
    }

    // ------------------------------------------------------------------
    // Iteration synchronization (the Section 3.2 alternative): lanes
    // refill individually the moment their sample dies, so a warp mixes
    // depths — better utilization, scattered accesses.
    // ------------------------------------------------------------------
    fn run_iteration_sync(&mut self, tasks: &mut Tasks<'_>) {
        let mut s: Lanes<SampleState> = [SampleState::new(); WARP_SIZE];
        let mut depth = [0usize; WARP_SIZE];
        let mut mask: WarpMask = 0;
        loop {
            // Refill dead lanes.
            for lane in 0..WARP_SIZE {
                if mask & (1 << lane) == 0 && tasks.fetch(lane) {
                    s[lane] = SampleState::new();
                    depth[lane] = 0;
                    mask |= 1 << lane;
                    self.fetched += 1;
                }
            }
            if mask == 0 {
                break;
            }
            self.ctr.warp_instruction(mask);
            mask = self.mixed_depth_iteration(&mut s, &mut depth, mask);
        }
    }

    /// One lockstep iteration where each lane works at its own depth.
    fn mixed_depth_iteration(
        &mut self,
        s: &mut Lanes<SampleState>,
        depth: &mut [usize; WARP_SIZE],
        mask: WarpMask,
    ) -> WarpMask {
        self.san.set_active(mask);
        // Resolve candidates per lane — segments now come from *different*
        // order positions, so the loads scatter across the candidate graph.
        let mut cand: Lanes<Option<LaneCand<'c>>> = [None; WARP_SIZE];
        for lane in lanes_of(mask) {
            cand[lane] = Some(self.resolve_lane(lane, s[lane].prefix(), depth[lane]));
        }
        self.charge_get_min(mask);

        // Refine + sample per lane (serial scans, mixed lengths).
        let mut chosen: Lanes<Option<(VertexId, f64)>> = [None; WARP_SIZE];
        let any_backward = lanes_of(mask).any(|lane| !self.ctx.backward(depth[lane]).is_empty());
        if self.est.needs_refine() && any_backward {
            self.serial_refine_sample(mask, &cand, &mut chosen);
        } else {
            self.direct_sample(mask, &cand, &mut chosen);
        }

        // Validate per lane.
        let mut next_mask = mask;
        for lane in lanes_of(mask) {
            let ok = match chosen[lane] {
                Some((v, p)) if self.est.validate(&self.segs[lane], &s[lane], v) => {
                    s[lane].push(v, p);
                    depth[lane] += 1;
                    if depth[lane] == self.ctx.len() {
                        let w = s[lane].ht_weight();
                        self.weight_sum += w;
                        self.weight_sq_sum += w * w;
                        self.leaves += 1;
                        false // completed; lane frees for a refill
                    } else {
                        true
                    }
                }
                _ => false,
            };
            if !ok {
                next_mask &= !(1 << lane);
            }
        }
        self.ctr.warp_instruction(mask);
        next_mask
    }

    /// Alley's Refine without streaming: every lane scans its own candidate
    /// array serially into its scratch buffer and draws uniformly from what
    /// survives; in the lockstep charge lanes with short arrays idle until
    /// the longest lane finishes (refine imbalance). Under iteration sync
    /// each lane may be at a different depth: lanes without backward
    /// constraints (position 0) sample directly under predication instead
    /// of scanning.
    fn serial_refine_sample(
        &mut self,
        mask: WarpMask,
        cand: &Lanes<Option<LaneCand<'c>>>,
        chosen: &mut Lanes<Option<(VertexId, f64)>>,
    ) {
        let mut direct: WarpMask = 0;
        for lane in lanes_of(mask) {
            if self.segs[lane].is_empty() {
                direct |= 1 << lane;
            }
        }
        if direct != 0 {
            self.direct_sample(direct, cand, chosen);
        }
        let mask = mask & !direct;
        for lane in lanes_of(mask) {
            self.scratch[lane].clear();
        }
        self.scan_lanes(mask, cand, &[0; WARP_SIZE], |exec, lane, v| {
            exec.scratch[lane].push(v)
        });
        for lane in lanes_of(mask) {
            let refined = &self.scratch[lane];
            if !refined.is_empty() {
                let idx = self.rng[lane].gen_range(0..refined.len());
                chosen[lane] = Some((refined[idx], 1.0 / refined.len() as f64));
            }
        }
    }

    /// Refine's scan (Algorithm 1): each lane of `mask` walks its candidates
    /// from `from[lane]` to the end with its own gallop cursors and hands
    /// every candidate that refines to `keep`. Lanes share no state in the
    /// scan, so they run one after another, and the lockstep charge is
    /// rebuilt from per-lane records (DESIGN.md §11): first the candidate
    /// element loads, lane `l` reading the `r`-th element of its run in
    /// round `r`, then the probes step by step, each step's rounds in lane
    /// order. A lane with one backward segment searches nothing and records
    /// nothing. Refine only scans positions with backward constraints, where
    /// every lane's candidate set lives in the local-CSR region.
    fn scan_lanes(
        &mut self,
        mask: WarpMask,
        cand: &Lanes<Option<LaneCand<'c>>>,
        from: &[usize; WARP_SIZE],
        mut keep: impl FnMut(&mut Self, usize, VertexId),
    ) {
        debug_assert!(
            lanes_of(mask).all(|l| cand[l].expect("active lane").region == Region::LOCAL),
            "refine candidates come from backward segments (LOCAL)"
        );
        self.reset_cursors(mask);
        self.clear_probe_bufs();
        for steps in &mut self.probe_steps {
            steps.clear();
        }
        let mut runs: [Range<usize>; WARP_SIZE] = Default::default();
        for lane in lanes_of(mask) {
            let lc = cand[lane].expect("active lane");
            let start = from[lane];
            runs[lane] = lc.addr + start..lc.addr + lc.cand.len();
            let probes = self.segs[lane].len() > 1;
            for &v in &lc.cand[start..] {
                let searched = if probes {
                    let before = self.probe_bufs[lane].len();
                    let member = self.record_lane_probes(lane, v);
                    let issued = self.probe_bufs[lane].len() - before;
                    self.probe_steps[lane].push(issued as u32);
                    member
                } else {
                    true // the minimum segment, the only one, holds `v`
                };
                if self.refines(lane, v, searched) {
                    keep(self, lane, v);
                }
            }
        }
        warp_load_runs(&mut self.ctr, &runs);
        warp_load_steps(&mut self.ctr, &self.probe_bufs, &self.probe_steps);
    }

    /// GetMinCandidate for one lane: resolve its backward segments at
    /// position `d` into `segs[lane]`, note the minimum one, and return the
    /// candidate set the lane samples from.
    fn resolve_lane(&mut self, lane: usize, prefix: &[VertexId], d: usize) -> LaneCand<'c> {
        let segs = &mut self.segs[lane];
        segs.clear();
        self.ctx.backward_segments(prefix, d, segs);
        if d == 0 {
            let (cand, addr) = self.ctx.root_candidates();
            return LaneCand {
                cand,
                addr,
                region: Region::GLOBAL,
            };
        }
        let min = QueryCtx::min_segment_index(segs);
        self.min_seg[lane] = min;
        let (cand, addr) = segs[min];
        LaneCand {
            cand,
            addr,
            region: Region::LOCAL,
        }
    }

    /// The Refine verdict for candidate `v` of `lane`. `searched` is the
    /// verdict of the search just charged for `v`: membership in every
    /// backward segment but the minimum one, which holds `v` by
    /// construction. An estimator that declares
    /// [`Estimator::refine_is_membership`] takes it as is; any other is
    /// asked through `refine_one`.
    #[inline]
    fn refines(&self, lane: usize, v: VertexId, searched: bool) -> bool {
        if self.est.refine_is_membership() {
            searched
        } else {
            self.est.refine_one(&self.segs[lane], v)
        }
    }

    // ------------------------------------------------------------------
    // Cost charging helpers.
    // ------------------------------------------------------------------

    /// GetMinCandidate loads: one load per backward segment a lane
    /// resolved, at the segment's element offset into the `local` array
    /// (scattered across lanes because partial instances differ). The
    /// load is a proxy: that offset stands in for the device's lookup,
    /// which ranks `v` in `C(u)` and reads `local_off[cand_off[k] + rank]`.
    /// Round `r` loads every lane's `r`-th segment, over as many rounds as
    /// the most segments any lane of `mask` holds: under iteration sync,
    /// lanes at different depths hold different counts.
    fn charge_get_min(&mut self, mask: WarpMask) {
        let segs = &self.segs;
        let rounds = lanes_of(mask).map(|l| segs[l].len()).max().unwrap_or(0);
        for r in 0..rounds {
            let bases = lanes_of(mask).filter_map(|lane| segs[lane].get(r).map(|seg| seg.1));
            warp_load_round(&mut self.ctr, bases);
        }
    }

    /// Reset every active lane's gallop cursors, one per backward segment.
    /// Called at the start of each refine scan so the following ascending
    /// candidate walk gallops forward from the segment heads.
    fn reset_cursors(&mut self, mask: WarpMask) {
        for lane in lanes_of(mask) {
            let k = self.segs[lane].len();
            self.cursors[lane].clear();
            self.cursors[lane].resize(k, 0);
        }
    }

    /// Clear the per-lane probe recordings of the previous step.
    fn clear_probe_bufs(&mut self) {
        for buf in &mut self.probe_bufs {
            buf.clear();
        }
    }

    /// Record the element addresses actually probed when testing `v`
    /// against every backward segment of `lane` except the minimum one the
    /// candidate was drawn from: a gallop (exponential probe + binary
    /// search) from the lane's persistent cursor into each segment.
    /// Returns whether `v` was found in all of them. Every segment is
    /// searched whatever the earlier ones answered, so the charge does not
    /// depend on the verdict.
    fn record_lane_probes(&mut self, lane: usize, v: VertexId) -> bool {
        let min_idx = self.min_seg[lane];
        let cursors = &mut self.cursors[lane];
        let buf = &mut self.probe_bufs[lane];
        let mut member = true;
        for (p, &(seg, base)) in self.segs[lane].iter().enumerate() {
            if p == min_idx {
                continue;
            }
            member &= intersect::gallop_member_probes(seg, &mut cursors[p], v, |off| {
                buf.push(base + off)
            });
        }
        member
    }

    /// Charge the recorded per-lane probe addresses to the coalescing
    /// memory model in lockstep rounds: round `r` loads every lane's
    /// `r`-th probe, so cross-lane divergence in search depth shows up as
    /// partially-filled transactions exactly as it would on a device.
    fn charge_recorded_probes(&mut self) {
        warp_load_rounds(&mut self.ctr, &self.probe_bufs);
    }

    /// Collaborative-phase probes: the 32 worker lanes test 32 consecutive
    /// candidates of the leader against the *leader's* non-min backward
    /// segments — independent binary searches into shared segments, whose
    /// early probes land on the same midpoints and coalesce (the win
    /// streaming buys over per-lane scattered segments). Returns, per
    /// worker, whether its candidate was found in all of them; as in
    /// [`WarpExec::record_lane_probes`], every segment is searched.
    fn charge_streaming_probes(
        &mut self,
        leader: usize,
        cand: &[VertexId],
        base: usize,
    ) -> [bool; WARP_SIZE] {
        if self.segs[leader].len() <= 1 {
            // Only the minimum segment, which holds every candidate:
            // nothing to search and no round to charge.
            return [true; WARP_SIZE];
        }
        self.clear_probe_bufs();
        let segs = &self.segs[leader];
        let min_idx = self.min_seg[leader];
        let mut member = [true; WARP_SIZE];
        for (t, buf) in self.probe_bufs.iter_mut().enumerate().take(WARP_SIZE) {
            let v = cand[base + t];
            for (p, &(seg, sbase)) in segs.iter().enumerate() {
                if p == min_idx {
                    continue;
                }
                member[t] &= intersect::member_with_probes(seg, v, |off| buf.push(sbase + off));
            }
        }
        self.charge_recorded_probes();
        member
    }

    /// Validate loads: WanderJoin binary-searches every backward segment
    /// for the lane's sampled vertex (the actual search paths are
    /// charged); Alley's validate is a register-only duplicate check.
    fn charge_validate(&mut self, mask: WarpMask, chosen: &Lanes<Option<(VertexId, f64)>>) {
        if self.est.needs_refine() {
            self.ctr.warp_instruction(mask);
            return;
        }
        self.clear_probe_bufs();
        for lane in lanes_of(mask) {
            let Some((v, _)) = chosen[lane] else {
                continue;
            };
            let segs = &self.segs[lane];
            let buf = &mut self.probe_bufs[lane];
            for &(seg, base) in segs {
                intersect::member_with_probes(seg, v, |off| buf.push(base + off));
            }
        }
        self.charge_recorded_probes();
        self.ctr.warp_instruction(mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineReport;
    use crate::runtime::run_engine;
    use gsword_candidate::{build_candidate_graph, BuildConfig, CandidateGraph};
    use gsword_estimators::{Alley, WanderJoin};
    use gsword_graph::{gen, GraphBuilder};
    use gsword_query::{quicksi_order, MatchingOrder, QueryGraph};
    use gsword_simt::DeviceConfig;

    fn small_device() -> DeviceConfig {
        DeviceConfig {
            num_blocks: 2,
            threads_per_block: 64,
        }
    }

    fn triangle_fixture() -> (CandidateGraph, QueryGraph) {
        let mut b = GraphBuilder::with_vertices(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let q = QueryGraph::new(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        (cg, q)
    }

    fn run(cfg: EngineConfig, alley: bool) -> EngineReport {
        let (cg, q) = triangle_fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        if alley {
            run_engine(&ctx, &Alley, &cfg)
        } else {
            run_engine(&ctx, &WanderJoin, &cfg)
        }
    }

    #[test]
    fn all_configs_estimate_triangles() {
        // Ground truth: 12 embeddings.
        for (name, cfg) in [
            ("baseline", EngineConfig::gpu_baseline(40_000)),
            ("o0", EngineConfig::o0(40_000)),
            ("o1", EngineConfig::o1(40_000)),
            ("o2", EngineConfig::o2(40_000)),
            ("itersync", EngineConfig::iteration_sync(40_000)),
        ] {
            for alley in [false, true] {
                let cfg = EngineConfig {
                    device: small_device(),
                    ..cfg
                };
                let rep = run(cfg, alley);
                let v = rep.value();
                assert!(
                    (10.0..14.5).contains(&v),
                    "{name}/alley={alley}: estimate {v} should be near 12"
                );
            }
        }
    }

    #[test]
    fn sample_counts_match_request() {
        let cfg = EngineConfig {
            device: small_device(),
            ..EngineConfig::o0(10_001)
        };
        let rep = run(cfg, true);
        assert_eq!(rep.estimate.samples, 10_001);
        let cfg = EngineConfig {
            device: small_device(),
            ..EngineConfig::gpu_baseline(10_001)
        };
        let rep = run(cfg, true);
        assert_eq!(rep.estimate.samples, 10_001);
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = EngineConfig {
            device: small_device(),
            ..EngineConfig::gsword(5_000)
        };
        let a = run(cfg, true);
        let b = run(cfg, true);
        assert_eq!(a.estimate.weight_sum, b.estimate.weight_sum);
        assert_eq!(a.counters, b.counters);
        let c = run(
            EngineConfig {
                device: small_device(),
                ..EngineConfig::gsword(5_000).with_seed(1234)
            },
            true,
        );
        assert_ne!(a.estimate.weight_sum, c.estimate.weight_sum);
    }

    #[test]
    fn inheritance_improves_warp_efficiency() {
        let g = gen::barabasi_albert(800, 6, gen::zipf_labels(800, 6, 0.9, 4), 4);
        let q = QueryGraph::extract(&g, 6, 11).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let dev = small_device();
        let o0 = run_engine(
            &ctx,
            &WanderJoin,
            &EngineConfig {
                device: dev,
                ..EngineConfig::o0(20_000)
            },
        );
        let o1 = run_engine(
            &ctx,
            &WanderJoin,
            &EngineConfig {
                device: dev,
                ..EngineConfig::o1(20_000)
            },
        );
        assert!(
            o1.counters.warp_efficiency() > o0.counters.warp_efficiency(),
            "inheritance should raise efficiency: O0 {:.3} vs O1 {:.3}",
            o0.counters.warp_efficiency(),
            o1.counters.warp_efficiency()
        );
    }

    #[test]
    fn inheritance_estimate_remains_unbiased() {
        // Skewed graph where samples die often — the regime inheritance
        // reweighting must keep unbiased.
        let g = gen::barabasi_albert(300, 4, gen::zipf_labels(300, 4, 0.8, 9), 9);
        let q = QueryGraph::extract(&g, 4, 21).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let truth =
            gsword_enumeration::count_instances(&ctx, gsword_enumeration::EnumLimits::unlimited())
                .count as f64;
        assert!(truth > 0.0);
        let rep = run_engine(
            &ctx,
            &Alley,
            &EngineConfig {
                device: small_device(),
                ..EngineConfig::o1(120_000)
            },
        );
        let rel = (rep.value() - truth).abs() / truth;
        assert!(
            rel < 0.25,
            "inherited estimate {} vs truth {truth} (rel {rel:.3})",
            rep.value()
        );
    }

    #[test]
    fn streaming_matches_serial_distribution() {
        // Streaming must keep the estimate unbiased too.
        let g = gen::barabasi_albert(500, 20, gen::zipf_labels(500, 3, 0.5, 2), 2);
        let q = QueryGraph::extract(&g, 4, 5).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let truth =
            gsword_enumeration::count_instances(&ctx, gsword_enumeration::EnumLimits::unlimited())
                .count as f64;
        assert!(truth > 0.0);
        let o2 = run_engine(
            &ctx,
            &Alley,
            &EngineConfig {
                device: small_device(),
                ..EngineConfig::o2(60_000)
            },
        );
        let rel = (o2.value() - truth).abs() / truth;
        assert!(
            rel < 0.3,
            "streaming estimate {} vs {truth} (rel {rel:.3})",
            o2.value()
        );
    }

    #[test]
    fn streaming_reduces_modeled_time_for_alley_on_skewed_graphs() {
        let g = gen::barabasi_albert(2_000, 24, gen::zipf_labels(2_000, 3, 0.4, 7), 7);
        let q = QueryGraph::extract(&g, 5, 3).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let dev = small_device();
        let o1 = run_engine(
            &ctx,
            &Alley,
            &EngineConfig {
                device: dev,
                ..EngineConfig::o1(10_000)
            },
        );
        let o2 = run_engine(
            &ctx,
            &Alley,
            &EngineConfig {
                device: dev,
                ..EngineConfig::o2(10_000)
            },
        );
        assert!(
            o2.modeled_ms < o1.modeled_ms,
            "streaming should cut modeled time: O1 {:.3}ms vs O2 {:.3}ms",
            o1.modeled_ms,
            o2.modeled_ms
        );
    }

    #[test]
    fn iteration_sync_costs_more_memory() {
        let g = gen::barabasi_albert(1_000, 8, gen::zipf_labels(1_000, 5, 0.8, 3), 3);
        let q = QueryGraph::extract(&g, 6, 17).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let dev = small_device();
        let ss = run_engine(
            &ctx,
            &Alley,
            &EngineConfig {
                device: dev,
                ..EngineConfig::o0(20_000)
            },
        );
        let is = run_engine(
            &ctx,
            &Alley,
            &EngineConfig {
                device: dev,
                ..EngineConfig::iteration_sync(20_000)
            },
        );
        // The paper's Figure 5 headline: iteration sync pays more memory
        // stalls per sample and loses overall despite better utilization.
        let ss_long = ss.counters.stall_long() as f64 / ss.estimate.samples as f64;
        let is_long = is.counters.stall_long() as f64 / is.estimate.samples as f64;
        assert!(
            is_long > ss_long,
            "iteration sync should cost more memory stalls: {is_long:.1} vs {ss_long:.1}"
        );
        let ss_ms = ss.modeled_ms / ss.estimate.samples as f64;
        let is_ms = is.modeled_ms / is.estimate.samples as f64;
        assert!(
            is_ms > ss_ms,
            "iteration sync should be slower end to end: {is_ms:.6} vs {ss_ms:.6}"
        );
    }

    #[test]
    fn inheritance_collects_more_samples_per_launch() {
        let g = gen::barabasi_albert(1_000, 8, gen::zipf_labels(1_000, 5, 0.8, 3), 3);
        let q = QueryGraph::extract(&g, 6, 17).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let dev = small_device();
        let o0 = run_engine(
            &ctx,
            &WanderJoin,
            &EngineConfig {
                device: dev,
                ..EngineConfig::o0(20_000)
            },
        );
        let o1 = run_engine(
            &ctx,
            &WanderJoin,
            &EngineConfig {
                device: dev,
                ..EngineConfig::o1(20_000)
            },
        );
        assert_eq!(
            o0.samples_collected, o0.estimate.samples,
            "no inheritance, no extras"
        );
        assert!(
            o1.samples_collected > o1.estimate.samples,
            "inheritance should add collected samples"
        );
        // The Figure 12 metric: modeled time per fixed sample budget drops.
        assert!(
            o1.modeled_ms_for_samples(1_000_000) < o0.modeled_ms_for_samples(1_000_000),
            "O1 should beat O0 per collected sample"
        );
    }
}
