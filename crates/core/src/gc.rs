//! Policy-pluggable, preemptible garbage collection (§2.1 of the paper,
//! generalized).
//!
//! When the free-block fraction drops below the threshold (Table 1: 10 %),
//! GC selects victim blocks, migrates their valid pages (read + program on
//! the chip timelines, so GC genuinely delays host I/O), erases them and
//! returns them to the allocator. Schemes supply a remap callback or a
//! [`PageMigrator`] that fixes their mapping tables from the migrated
//! pages' OOB tags.
//!
//! Three things are pluggable on top of the paper's greedy atomic design:
//!
//! * **Victim policy** ([`GcPolicy`]) — greedy (most invalid pages first,
//!   the paper's choice), cost-benefit (age × benefit/cost scoring), or
//!   windowed greedy (greediest pick among the oldest candidates).
//! * **Preemption** ([`GcTuning::preempt_pages`]) — an episode becomes a
//!   resumable [`GcEpisode`] state machine; each foreground invocation
//!   runs at most a budget of page copies and pauses, so host requests
//!   interleave with GC at page-copy granularity instead of stalling
//!   behind a whole episode. A near-empty device
//!   ([`GcTuning::urgent_ratio`]) overrides the budget so preemption can
//!   never starve the allocator.
//! * **Idle collection** ([`GcTuning::idle_headroom`]) — the host engine
//!   reports arrival gaps; [`GcState::idle_collect`] uses them to run
//!   budgeted background slices proactively, above the foreground
//!   threshold.
//!
//! Victim order is defined, not inherited from a sort: greedy takes the
//! most-invalid block first and, among equals, the one that entered the
//! [`aftl_flash::VictimIndex`] earliest (`(invalid desc, stamp asc)`;
//! stamps are unique, so the order is total and the same on any
//! toolchain). The fig8 golden digests pin the simulated results that
//! order produces.
//!
//! Greedy selection costs what it collects. An episode starts in O(1) with
//! a bucket cursor at the index's top level; only when its victim queue
//! runs dry does it read the next non-empty bucket below the cursor, drop
//! allocator-active blocks, heap that one bucket by stamp and continue —
//! so each victim taken costs O(log bucket), and the blocks an episode
//! never reaches are never ordered.
//! The cursor only descends, so an episode sees each bucket at most once
//! and its victim list is finite however the index changes under it. A
//! bucket holds what is in it *when the cursor reaches it*: a block that
//! becomes a candidate above the cursor mid-episode (a translation-page
//! flush during migration can do that) waits for the next episode.
//! Cost-benefit and windowed need global ranks, so they enumerate the
//! index once at episode start and sort.
//!
//! The victim being drained is *held* out of the index (see
//! [`aftl_flash::victims`]) from the moment its pages are captured until it
//! is erased or retired; an episode dropped mid-victim gives it back as it
//! took it. Each one-to-one copy is one [`FlashArray::relocate`] call.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use aftl_flash::{
    Allocator, BlockAddr, FlashArray, FlashError, Nanos, PageInfo, Ppn, Relocation, Result,
};
use serde::{Deserialize, Serialize};

/// Victim-selection policy for GC episodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GcPolicy {
    /// Most invalid pages first (the paper's greedy collector).
    #[default]
    Greedy,
    /// Classic cost-benefit: maximize `age × invalid / (2 × valid + 1)`,
    /// where age is the victim-index entry tick. Prefers cold blocks whose
    /// reclaim is cheap, avoiding hot blocks about to gain more invalid
    /// pages.
    CostBenefit,
    /// Windowed greedy: order candidates oldest-first, then pick the
    /// greediest within each [`GcTuning::window`]-sized window. Bounds
    /// how long a cold, half-invalid block can be starved by fresher,
    /// fuller victims.
    Windowed,
}

impl GcPolicy {
    /// CLI / manifest label.
    pub fn name(self) -> &'static str {
        match self {
            GcPolicy::Greedy => "greedy",
            GcPolicy::CostBenefit => "cost-benefit",
            GcPolicy::Windowed => "windowed",
        }
    }

    /// Parse a CLI label (the inverse of [`GcPolicy::name`]).
    pub fn parse(s: &str) -> Option<GcPolicy> {
        match s {
            "greedy" => Some(GcPolicy::Greedy),
            "cost-benefit" | "costbenefit" | "cb" => Some(GcPolicy::CostBenefit),
            "windowed" => Some(GcPolicy::Windowed),
            _ => None,
        }
    }
}

/// Policy / preemption / idle / throttle knobs — everything about GC
/// except the trigger threshold (which stays a top-level scheme config
/// field for manifest compatibility).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GcTuning {
    /// Victim-selection policy.
    pub policy: GcPolicy,
    /// Foreground slice budget in page copies; `0` = atomic episodes
    /// (the paper's behavior, and the default).
    pub preempt_pages: u32,
    /// Window width for [`GcPolicy::Windowed`].
    pub window: u32,
    /// Below `threshold × urgent_ratio` free fraction, a foreground slice
    /// ignores the preemption budget and collects until the stop mark —
    /// graceful degradation beats an allocator failure.
    pub urgent_ratio: f64,
    /// Idle (background) GC runs while the free fraction is below
    /// `threshold + idle_headroom`; `0` disables idle GC (the default).
    pub idle_headroom: f64,
    /// Host writes are delayed by [`GcTuning::throttle_delay_ns`] while
    /// the free fraction is below this; `0` disables the throttle
    /// (the default).
    pub throttle_fraction: f64,
    /// Extra admission latency per throttled write.
    pub throttle_delay_ns: u64,
}

impl Default for GcTuning {
    fn default() -> Self {
        GcTuning {
            policy: GcPolicy::Greedy,
            preempt_pages: 0,
            window: 8,
            urgent_ratio: 0.5,
            idle_headroom: 0.0,
            throttle_fraction: 0.0,
            throttle_delay_ns: 2_000_000, // one TLC program time
        }
    }
}

/// GC tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GcConfig {
    /// Trigger when the free-block fraction falls below this (Table 1: 0.10).
    pub threshold: f64,
    /// Keep reclaiming until the fraction exceeds `threshold + hysteresis`,
    /// so GC runs in episodes rather than once per write.
    pub hysteresis: f64,
    /// Policy / preemption / idle / throttle knobs.
    pub tuning: GcTuning,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            threshold: 0.10,
            hysteresis: 0.0005,
            tuning: GcTuning::default(),
        }
    }
}

/// What one `maybe_gc` invocation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcReport {
    /// Whether the free-space threshold was breached at all.
    pub triggered: bool,
    /// Blocks erased and returned to the allocator.
    pub erased_blocks: u64,
    /// Valid pages migrated out of victim blocks.
    pub migrated_pages: u64,
    /// Victim blocks retired instead of reclaimed (erase failure or
    /// worn-out endurance budget). Their pages were migrated first, so no
    /// data is lost — only capacity.
    pub retired_blocks: u64,
    /// Migrated pages whose source read exhausted the retry ladder; the
    /// copy carries [`crate::LOST_VERSION`] stamps.
    pub lost_pages: u64,
    /// Collection episodes started (victim set selected). Unlike the
    /// boolean `triggered`, this survives [`GcReport::merge`], so "how
    /// many episodes" is recoverable from an aggregated report.
    pub episodes: u64,
    /// Foreground slices that paused at the preemption budget with the
    /// episode unfinished.
    pub preemptions: u64,
    /// Pages migrated by idle (background) slices.
    pub idle_pages: u64,
}

impl GcReport {
    /// Accumulate another invocation's report into this one.
    pub fn merge(&mut self, o: &GcReport) {
        self.triggered |= o.triggered;
        self.erased_blocks += o.erased_blocks;
        self.migrated_pages += o.migrated_pages;
        self.retired_blocks += o.retired_blocks;
        self.lost_pages += o.lost_pages;
        self.episodes += o.episodes;
        self.preemptions += o.preemptions;
        self.idle_pages += o.idle_pages;
    }
}

/// How a scheme relocates the valid pages of GC victims.
///
/// The default [`CopyMigrator`] copies pages one-to-one; every scheme's
/// migrator reaches it for that arm through the shared core's `PageCopier`,
/// which also remaps `Map` pages. Two schemes add their own: MRSM *repacks*
/// sparse region pages during collection instead of copying them sparse —
/// without this, sub-page fragmentation would permanently inflate the
/// valid-data footprint — and Learned-FTL buffers data pages and reprograms
/// them LPN-sorted, so relocation recreates the runs its model learns.
///
/// Preemption contract: the episode machine hands `migrate` every page it
/// captured when it took the victim, and a host write between the slices
/// of a parked episode may have superseded a page since. `migrate` checks
/// validity once — inside [`FlashArray::relocate`] for a one-to-one copy —
/// and skips such a page. It must invalidate *only* `old` (every in-tree
/// migrator does): a sibling page of the same victim is then never
/// superseded behind GC's back, so in an atomic episode nothing is ever
/// skipped.
pub trait PageMigrator {
    /// Relocate one captured page (`old`, with OOB `info`): if it is still
    /// valid, issue the flash ops, invalidate `old` and update the mapping
    /// state, returning the number of pages programmed; if it is not,
    /// issue nothing and return `None`. Source-read losses are recorded in
    /// `report.lost_pages`.
    fn migrate(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        old: Ppn,
        info: &PageInfo,
        report: &mut GcReport,
    ) -> Result<Option<u64>>;

    /// Called with a victim's captured pages before any of them moves: a
    /// migrator reads the table entries it will update for them here, so
    /// their cache misses overlap rather than stalling one copy each.
    fn prefetch(&self, _pages: &[(Ppn, PageInfo)]) {}

    /// Called once at the end of every collection slice (flush any
    /// partially packed buffers). Migrators are rebuilt per invocation —
    /// they borrow scheme tables — so a paused episode must not leave
    /// state inside one.
    fn finish(
        &mut self,
        _array: &mut FlashArray,
        _alloc: &mut Allocator,
        _now: Nanos,
        _report: &mut GcReport,
    ) -> Result<u64> {
        Ok(0)
    }
}

/// The default migrator: one-to-one page copy ([`FlashArray::relocate`])
/// plus a remap callback.
pub struct CopyMigrator<F>(pub F);

impl<F> PageMigrator for CopyMigrator<F>
where
    F: FnMut(&mut FlashArray, Ppn, Ppn, &PageInfo),
{
    #[inline]
    fn migrate(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        old: Ppn,
        info: &PageInfo,
        report: &mut GcReport,
    ) -> Result<Option<u64>> {
        let Relocation::Moved { to, lost } = array.relocate(alloc, old, info, now)? else {
            return Ok(None);
        };
        if lost {
            report.lost_pages += 1;
        }
        (self.0)(array, old, to, info);
        Ok(Some(1))
    }
}

/// One erase candidate at episode start, as scored by the victim policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct VictimCand {
    /// Invalid pages in the block (the greedy signal).
    pub invalid: u32,
    /// Plane of the block.
    pub plane_idx: u64,
    /// Block within its plane.
    pub block: u32,
    /// Victim-index entry tick (smaller = became a candidate earlier).
    pub stamp: u64,
}

impl VictimCand {
    #[inline]
    fn new(invalid: u32, addr: BlockAddr, stamp: u64) -> Self {
        VictimCand {
            invalid,
            plane_idx: addr.plane_idx,
            block: addr.block,
            stamp,
        }
    }

    #[inline]
    fn addr(&self) -> BlockAddr {
        BlockAddr {
            plane_idx: self.plane_idx,
            block: self.block,
        }
    }
}

/// Order `cands` into episode victim order under `policy`: the reference
/// definition of each policy's order. Cost-benefit and windowed episodes
/// run it over the whole candidate set; greedy episodes never sort the
/// set (see the module docs) and must collect in this order all the same —
/// the debug oracle and the property tests compare against it.
///
/// Every key is total given unique stamps and unique `(plane, block)`
/// addresses — which the victim index guarantees — so the result does not
/// depend on the order `cands` arrives in.
pub fn order_victims(
    policy: GcPolicy,
    window: u32,
    pages_per_block: u32,
    cands: &mut [VictimCand],
) {
    match policy {
        GcPolicy::Greedy => {
            // Greediest first, coldest among equals.
            cands.sort_unstable_by_key(|c| (std::cmp::Reverse(c.invalid), c.stamp));
        }
        GcPolicy::CostBenefit => {
            // Benefit/cost × age with integer arithmetic: score =
            // age × invalid × (2·ppb + 1) / (2 × valid + 1), where valid
            // = pages_per_block − invalid (candidates are full blocks)
            // and age is measured by entry order (newest stamp = age 1).
            // The (2·ppb + 1) numerator scale exceeds every possible
            // denominator, so any block with an invalid page scores ≥ 1 —
            // floor division can never tie it with a fully-valid block's
            // zero. (plane, block) tie-breaks keep the order total and
            // deterministic.
            let newest = cands.iter().map(|c| c.stamp).max().unwrap_or(0);
            let scale = 2 * u128::from(pages_per_block) + 1;
            let score = |c: &VictimCand| -> u128 {
                let age = u128::from(newest - c.stamp) + 1;
                let valid = u128::from(pages_per_block.saturating_sub(c.invalid));
                age * u128::from(c.invalid) * scale / (2 * valid + 1)
            };
            cands.sort_unstable_by_key(|c| (std::cmp::Reverse(score(c)), c.plane_idx, c.block));
        }
        GcPolicy::Windowed => {
            // Oldest candidates first (stamps are unique), then greediest
            // within each window of that ordering. Fully-valid blocks sort
            // behind every reclaimable one regardless of age — erasing
            // them frees nothing.
            cands.sort_unstable_by_key(|c| (c.invalid == 0, c.stamp));
            let w = (window.max(1)) as usize;
            for chunk in cands.chunks_mut(w) {
                chunk
                    .sort_unstable_by_key(|c| (std::cmp::Reverse(c.invalid), c.plane_idx, c.block));
            }
        }
    }
}

/// The cursors of a resumable collection episode over [`GcState`]'s victim
/// and page buffers: which bucket to pull next, which victim is being
/// drained and how far, and the blocks erased so far. Paused and resumed by
/// [`GcState`]; holds no borrows, so it lives inside a scheme across
/// invocations.
#[derive(Debug, Clone)]
pub struct GcEpisode {
    /// Greedy only: the victim-index bucket (= invalid count) to pull when
    /// the victim queue next runs dry. Strictly descending, so the
    /// episode's victims are finite; 0 = nothing left to pull, which is
    /// where cost-benefit and windowed episodes start.
    cursor: u32,
    /// The victim being drained, held out of the victim index; its valid
    /// pages are [`GcState`]'s captured pages.
    current: Option<VictimCand>,
    /// Cursor into the current victim's captured valid pages.
    next_page: usize,
    /// Blocks erased by this episode so far (feeds the historic
    /// nothing-reclaimable [`FlashError::NoFreeBlocks`] check).
    erased: u64,
}

/// How a collection slice ended.
enum SliceEnd {
    /// Episode finished (victims exhausted or stop mark reached); carries
    /// the episode's total erased-block count.
    Done { episode_erased: u64 },
    /// Budget exhausted with work remaining; the episode stays parked.
    Paused,
}

/// The per-scheme GC driver: configuration, the (at most one) parked
/// [`GcEpisode`] and the buffers it runs over. Foreground collection
/// ([`GcState::maybe_collect`]) runs after host writes; idle collection
/// ([`GcState::idle_collect`]) runs in host arrival gaps when enabled.
#[derive(Debug, Clone)]
pub struct GcState {
    cfg: GcConfig,
    episode: Option<GcEpisode>,
    /// Victims of the episode in flight not yet taken, a min-heap on their
    /// key: the rest of the bucket being drained, keyed by stamp, for
    /// greedy; the rest of the whole candidate set, keyed by rank, for
    /// cost-benefit and windowed. Kept between episodes, like `pages`, so
    /// steady-state greedy collection allocates nothing.
    victims: BinaryHeap<Reverse<(u64, VictimCand)>>,
    /// Valid pages of the current victim, captured at victim start.
    pages: Vec<(Ppn, PageInfo)>,
}

impl GcState {
    /// A driver with no episode in flight.
    pub fn new(cfg: GcConfig) -> Self {
        GcState {
            cfg,
            episode: None,
            victims: BinaryHeap::new(),
            pages: Vec::new(),
        }
    }

    /// The configuration this driver runs.
    #[inline]
    pub fn config(&self) -> &GcConfig {
        &self.cfg
    }

    /// Whether a paused episode is waiting to resume.
    #[inline]
    pub fn in_episode(&self) -> bool {
        self.episode.is_some()
    }

    /// What a scheme's `maybe_gc` (`idle_budget` = `None`) and `idle_gc`
    /// (`Some(max_pages)`) both come to: the same migrator, under the
    /// foreground or the idle trigger and budget.
    pub fn collect(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        idle_budget: Option<u64>,
        migrator: &mut dyn PageMigrator,
    ) -> Result<GcReport> {
        match idle_budget {
            None => self.maybe_collect(array, alloc, now, migrator),
            Some(max_pages) => self.idle_collect(array, alloc, now, max_pages, migrator),
        }
    }

    /// Foreground collection: trigger below the threshold, resume a parked
    /// episode, and run up to the preemption budget of page copies
    /// (unbounded when `preempt_pages` is 0 or free space is urgent-low).
    pub fn maybe_collect(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        migrator: &mut dyn PageMigrator,
    ) -> Result<GcReport> {
        let mut report = GcReport::default();
        if self.episode.is_none() {
            if alloc.free_fraction() >= self.cfg.threshold {
                return Ok(report);
            }
            self.start_episode(array, alloc, &mut report);
        }
        report.triggered = true;

        let t = self.cfg.tuning;
        let urgent = alloc.free_fraction() < self.cfg.threshold * t.urgent_ratio;
        let budget = if t.preempt_pages == 0 || urgent {
            u64::MAX
        } else {
            u64::from(t.preempt_pages)
        };
        let stop_at = self.cfg.threshold + self.cfg.hysteresis;
        match self.run_slice(array, alloc, now, stop_at, budget, migrator, &mut report)? {
            SliceEnd::Done { episode_erased } => {
                if alloc.free_fraction() < self.cfg.threshold && episode_erased == 0 {
                    // Nothing reclaimable: the device is genuinely full of
                    // valid data.
                    return Err(FlashError::NoFreeBlocks);
                }
            }
            SliceEnd::Paused => report.preemptions += 1,
        }
        Ok(report)
    }

    /// Idle (background) collection: run up to `max_pages` page copies
    /// while the free fraction sits below `threshold + idle_headroom`.
    /// No-op when idle GC is disabled. Never reports
    /// [`FlashError::NoFreeBlocks`] — a genuinely full device is the
    /// foreground path's error to raise.
    pub fn idle_collect(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        max_pages: u64,
        migrator: &mut dyn PageMigrator,
    ) -> Result<GcReport> {
        let mut report = GcReport::default();
        let t = self.cfg.tuning;
        if t.idle_headroom <= 0.0 || max_pages == 0 {
            return Ok(report);
        }
        let target = self.cfg.threshold + t.idle_headroom;
        if self.episode.is_none() {
            if alloc.free_fraction() >= target {
                return Ok(report);
            }
            self.start_episode(array, alloc, &mut report);
        }
        report.triggered = alloc.free_fraction() < self.cfg.threshold;
        let end = self.run_slice(array, alloc, now, target, max_pages, migrator, &mut report);
        match end {
            Ok(_) => {
                report.idle_pages = report.migrated_pages;
                Ok(report)
            }
            Err(FlashError::NoFreeBlocks) => {
                report.idle_pages = report.migrated_pages;
                Ok(report)
            }
            Err(e) => Err(e),
        }
    }

    /// Open an episode. Greedy selects nothing yet — it notes the index's
    /// top level and [`pull_bucket`] materialises victims as the episode
    /// needs them, so this is O(1); cost-benefit and windowed rank the whole
    /// candidate set here, in one pass over the index. Allocator-active
    /// blocks are never victims (they are still being programmed).
    fn start_episode(&mut self, array: &mut FlashArray, alloc: &Allocator, report: &mut GcReport) {
        #[cfg(debug_assertions)]
        array
            .check_victim_index()
            .expect("victim index consistent with block summaries");

        let t = self.cfg.tuning;
        self.victims.clear();
        let cursor = match t.policy {
            GcPolicy::Greedy => array.top_victim_level(),
            GcPolicy::CostBenefit | GcPolicy::Windowed => {
                let pages_per_block = array.geometry().pages_per_block;
                let mut ranked = Vec::new();
                array.victim_index().for_each(|invalid, addr, stamp| {
                    if !alloc.is_active(addr) {
                        ranked.push(VictimCand::new(invalid, addr, stamp));
                    }
                });
                order_victims(t.policy, t.window, pages_per_block, &mut ranked);
                #[cfg(debug_assertions)]
                assert_matches_scan(
                    array,
                    alloc,
                    t.policy,
                    t.window,
                    1..=pages_per_block,
                    &ranked,
                );
                let ranked = ranked.into_iter().enumerate();
                self.victims
                    .extend(ranked.map(|(rank, c)| Reverse((rank as u64, c))));
                0
            }
        };
        report.episodes += 1;
        self.episode = Some(GcEpisode {
            cursor,
            current: None,
            next_page: 0,
            erased: 0,
        });
    }

    /// Run one slice of the parked episode (see [`GcState::slice`]). The
    /// episode stays parked only when the slice paused; when it finished
    /// or failed it is dropped — the scheme surfaces an error and a later
    /// trigger starts fresh. An episode dropped mid-victim gives the
    /// victim back to the index at its old stamp, so the next one finds
    /// the index as an uninterrupted run would have left it.
    #[allow(clippy::too_many_arguments)]
    fn run_slice(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        stop_at: f64,
        budget: u64,
        migrator: &mut dyn PageMigrator,
        report: &mut GcReport,
    ) -> Result<SliceEnd> {
        let end = self.slice(array, alloc, now, stop_at, budget, migrator, report);
        if !matches!(end, Ok(SliceEnd::Paused)) {
            if let Some(victim) = self.episode.take().and_then(|ep| ep.current) {
                array.release_victim(victim.addr());
            }
        }
        end
    }

    /// Copy up to `budget` valid pages, erasing victims as they drain,
    /// until the stop mark, victim exhaustion, or the budget. Always
    /// flushes the migrator before returning `Ok` (migrators are rebuilt
    /// per invocation).
    #[allow(clippy::too_many_arguments)]
    fn slice(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        stop_at: f64,
        budget: u64,
        migrator: &mut dyn PageMigrator,
        report: &mut GcReport,
    ) -> Result<SliceEnd> {
        let GcState {
            episode,
            victims,
            pages,
            ..
        } = self;
        let ep = episode.as_mut().expect("slice runs with an episode");
        let mut copied: u64 = 0;
        let end = loop {
            let victim = match ep.current {
                Some(victim) => victim.addr(),
                None => {
                    // Victim boundary: the stop mark is only checked here,
                    // matching the historic per-victim (not per-page)
                    // check — and before any bucket is read for a victim
                    // not needed.
                    if alloc.free_fraction() >= stop_at
                        || (victims.is_empty() && !pull_bucket(ep, victims, array, alloc))
                    {
                        break SliceEnd::Done {
                            episode_erased: ep.erased,
                        };
                    }
                    if copied >= budget {
                        break SliceEnd::Paused;
                    }
                    let Reverse((_, victim)) = victims.pop().expect("a victim is queued");
                    array.hold_victim(victim.addr(), pages);
                    migrator.prefetch(pages);
                    ep.current = Some(victim);
                    ep.next_page = 0;
                    victim.addr()
                }
            };

            while ep.next_page < pages.len() {
                if copied >= budget {
                    break;
                }
                let (old_ppn, info) = pages[ep.next_page];
                ep.next_page += 1;
                // A page superseded since capture is skipped — its mapping
                // already points at the newer copy.
                let Some(programs) = migrator.migrate(array, alloc, now, old_ppn, &info, report)?
                else {
                    continue;
                };
                report.migrated_pages += programs;
                array.note_gc_migration();
                copied += 1;
            }
            if ep.next_page < pages.len() {
                break SliceEnd::Paused;
            }

            // Victim drained. Without a crash armed it is safe to erase
            // before flushing packed buffers: migrate() already read the
            // data and invalidated the source pages. With a crash armed the
            // DRAM repack buffers (MRSM sub-regions, learned sorted pages)
            // would be lost by a power cut after the erase destroyed their
            // source pages, so the migrator must flush to flash *first* —
            // the same write-before-erase ordering real crash-consistent
            // GCs enforce. A failed or worn-out erase retires the victim
            // instead of reclaiming it — its valid data already moved, so
            // only capacity shrinks.
            if array.crash_armed() {
                let programs = migrator.finish(array, alloc, now, report)?;
                report.migrated_pages += programs;
            }
            match array.erase(victim, now) {
                Ok(_) => {
                    alloc.release_block(victim);
                    report.erased_blocks += 1;
                    ep.erased += 1;
                }
                Err(FlashError::EraseFailed { .. }) | Err(FlashError::WornOut { .. }) => {
                    report.retired_blocks += 1;
                }
                Err(e) => return Err(e),
            }
            ep.current = None;
        };

        let programs = migrator.finish(array, alloc, now, report)?;
        report.migrated_pages += programs;
        Ok(end)
    }
}

/// Greedy selection proper: refill the drained victim queue with the next
/// non-empty bucket at or below the episode's cursor — its blocks that are
/// not allocator-active, in a min-heap on their stamps — and leave the
/// cursor under it. Returns whether there is a victim to take: `false`
/// only when no bucket is left. Costs the buckets it reads, O(bucket) to
/// heap one, and O(log bucket) per victim taken from it.
fn pull_bucket(
    ep: &mut GcEpisode,
    victims: &mut BinaryHeap<Reverse<(u64, VictimCand)>>,
    array: &FlashArray,
    alloc: &Allocator,
) -> bool {
    while victims.is_empty() && ep.cursor > 0 {
        let level = ep.cursor;
        ep.cursor -= 1;
        let mut queue = std::mem::take(victims).into_vec();
        queue.extend(
            array
                .victim_index()
                .bucket(level)
                .filter(|&(addr, _)| !alloc.is_active(addr))
                .map(|(addr, stamp)| Reverse((stamp, VictimCand::new(level, addr, stamp)))),
        );
        *victims = BinaryHeap::from(queue);
        #[cfg(debug_assertions)]
        assert_matches_scan(
            array,
            alloc,
            GcPolicy::Greedy,
            0,
            level..=level,
            &taking_order(victims),
        );
    }
    !victims.is_empty()
}

/// The victims `queue` holds, in the order the episode will take them.
#[cfg(any(test, debug_assertions))]
fn taking_order(queue: &BinaryHeap<Reverse<(u64, VictimCand)>>) -> Vec<VictimCand> {
    let ascending = queue.clone().into_sorted_vec().into_iter().rev();
    ascending.map(|Reverse((_, c))| c).collect()
}

/// Debug oracle: victims just taken from the index at invalid counts
/// `levels`, in the order the episode takes them, must be exactly what a
/// full scan of the block summaries finds there — full, that many invalid
/// pages, not retired, not allocator-active, not held — in `policy`'s
/// reference order.
#[cfg(debug_assertions)]
fn assert_matches_scan(
    array: &FlashArray,
    alloc: &Allocator,
    policy: GcPolicy,
    window: u32,
    levels: std::ops::RangeInclusive<u32>,
    got: &[VictimCand],
) {
    let vi = array.victim_index();
    let mut scan = Vec::new();
    for plane in 0..array.geometry().total_planes() {
        for s in array.block_summaries(plane) {
            if s.full
                && levels.contains(&s.invalid)
                && !s.retired
                && !alloc.is_active(s.addr)
                && !vi.is_held(s.addr)
            {
                let stamp = vi.stamp_of(s.addr).expect("a candidate block is indexed");
                scan.push(VictimCand::new(s.invalid, s.addr, stamp));
            }
        }
    }
    order_victims(policy, window, array.geometry().pages_per_block, &mut scan);
    assert_eq!(
        got, scan,
        "victims taken from the index diverged from a full scan"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_flash::{Geometry, PageKind, StreamId, TimingSpec};
    use std::collections::HashMap;

    /// Run a GC episode to completion if needed, copying pages one-to-one
    /// and calling `remap(array, old, new, info)` for each: a fresh
    /// [`GcState`] driven over as many slices as `cfg`'s preemption budget
    /// cuts the episode into.
    fn maybe_collect<F>(
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        cfg: &GcConfig,
        remap: F,
    ) -> Result<GcReport>
    where
        F: FnMut(&mut FlashArray, Ppn, Ppn, &PageInfo),
    {
        let mut state = GcState::new(*cfg);
        let mut migrator = CopyMigrator(remap);
        let mut total = GcReport::default();
        loop {
            let r = state.maybe_collect(array, alloc, now, &mut migrator)?;
            total.merge(&r);
            if !state.in_episode() {
                return Ok(total);
            }
        }
    }

    /// Fill the device with single-LPN pages, overwriting to create
    /// invalid pages, then check GC reclaims space and remaps correctly.
    #[test]
    fn gc_reclaims_and_remaps() {
        let g = Geometry::tiny(); // 32 blocks × 8 pages
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        let mut alloc = Allocator::new(&array);
        let mut map: HashMap<u64, Ppn> = HashMap::new();

        // Keep writing a working set of 40 LPNs until free space dips
        // under the threshold; then GC must bring it back.
        // A large hysteresis forces episodes deep enough that GC must also
        // collect mixed blocks (cold pages among invalid ones) → migrations.
        let cfg = GcConfig {
            threshold: 0.25,
            hysteresis: 0.74, // reclaim everything reclaimable each episode
            ..GcConfig::default()
        };
        // Cold data first: these LPNs are never overwritten, so GC must
        // migrate them out of mostly-invalid victim blocks.
        for lpn in 20..40u64 {
            let ppn = alloc.alloc_page(&array, StreamId::Data).unwrap();
            array.program(ppn, PageKind::Data, lpn, 4096, 0, 0).unwrap();
            map.insert(lpn, ppn);
        }
        let mut writes = 0u64;
        for round in 0..2000u64 {
            let lpn = round % 20;
            let ppn = alloc.alloc_page(&array, StreamId::Data).unwrap();
            array.program(ppn, PageKind::Data, lpn, 4096, 0, 0).unwrap();
            if let Some(old) = map.insert(lpn, ppn) {
                array.invalidate(old).unwrap();
            }
            writes += 1;

            let rep = maybe_collect(&mut array, &mut alloc, 0, &cfg, |_, old, new, info| {
                assert_eq!(info.kind, PageKind::Data);
                let cur = map.get_mut(&info.tag).unwrap();
                assert_eq!(*cur, old, "GC must migrate the current copy");
                *cur = new;
            })
            .unwrap();
            if rep.triggered {
                assert!(alloc.free_fraction() >= cfg.threshold);
                assert!(rep.episodes >= 1, "triggered work runs in episodes");
            }
        }
        assert!(writes == 2000);
        assert!(array.stats().erases > 0, "GC must have erased blocks");
        assert!(array.stats().gc_migrations > 0);
        // All 40 LPNs still resolvable and valid.
        for (_, ppn) in map {
            assert!(array.page_info(ppn).unwrap().is_valid());
        }
    }

    #[test]
    fn gc_noop_when_space_plentiful() {
        let g = Geometry::tiny();
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        let mut alloc = Allocator::new(&array);
        let rep = maybe_collect(
            &mut array,
            &mut alloc,
            0,
            &GcConfig::default(),
            |_, _, _, _| panic!("no migration expected"),
        )
        .unwrap();
        assert!(!rep.triggered);
        assert_eq!(rep.erased_blocks, 0);
        assert_eq!(rep.episodes, 0);
    }

    #[test]
    fn gc_fails_when_everything_is_valid() {
        let g = Geometry::tiny();
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        let mut alloc = Allocator::new(&array);
        // Unique LPNs: nothing ever invalidated.
        let total = array.geometry().total_pages();
        for lpn in 0..(total * 95 / 100) {
            let ppn = alloc.alloc_page(&array, StreamId::Data).unwrap();
            array.program(ppn, PageKind::Data, lpn, 4096, 0, 0).unwrap();
        }
        let cfg = GcConfig {
            threshold: 0.20,
            hysteresis: 0.0,
            ..GcConfig::default()
        };
        let err = maybe_collect(&mut array, &mut alloc, 0, &cfg, |_, _, _, _| {}).unwrap_err();
        assert_eq!(err, FlashError::NoFreeBlocks);
    }

    #[test]
    fn gc_preserves_content_stamps() {
        let g = Geometry::tiny();
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        array.enable_content_tracking();
        let mut alloc = Allocator::new(&array);
        let mut map: HashMap<u64, Ppn> = HashMap::new();

        let cfg = GcConfig {
            threshold: 0.30,
            hysteresis: 0.05,
            ..GcConfig::default()
        };
        for round in 0..1500u64 {
            let lpn = round % 30;
            let ppn = alloc.alloc_page(&array, StreamId::Data).unwrap();
            array.program(ppn, PageKind::Data, lpn, 4096, 0, 0).unwrap();
            array.record_content(
                ppn,
                vec![
                    Some(aftl_flash::SectorStamp {
                        sector: lpn * 8,
                        version: round,
                    });
                    8
                ]
                .into_boxed_slice(),
            );
            if let Some(old) = map.insert(lpn, ppn) {
                array.invalidate(old).unwrap();
            }
            maybe_collect(&mut array, &mut alloc, 0, &cfg, |_, old, new, info| {
                let cur = map.get_mut(&info.tag).unwrap();
                assert_eq!(*cur, old);
                *cur = new;
            })
            .unwrap();
        }
        // Content must have followed the migrations.
        for (lpn, ppn) in map {
            let c = array.content_of(ppn).expect("migrated content present");
            assert_eq!(c[0].unwrap().sector, lpn * 8);
        }
    }

    /// Shared workload builder for the preemption/policy tests: a
    /// near-full device (tiny geometry: 64 blocks × 8 pages) whose blocks
    /// mix hot (mostly-invalid) and cold (still-valid) pages, so GC
    /// episodes span several victims and migrate real pages.
    fn churned_device() -> (FlashArray, Allocator, HashMap<u64, Ppn>) {
        let g = Geometry::tiny();
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        let mut alloc = Allocator::new(&array);
        let mut map: HashMap<u64, Ppn> = HashMap::new();
        let mut cold = 1000u64;
        for round in 0..440u64 {
            // One cold (never overwritten) page every 9 writes keeps
            // victims mixed; the rest churn a 30-LPN hot set. The stride
            // is coprime to the 4-plane round-robin so cold pages land on
            // every plane (no plane of purely-invalid free wins).
            let lpn = if round % 9 == 3 {
                cold += 1;
                cold
            } else {
                round % 30
            };
            let ppn = alloc.alloc_page(&array, StreamId::Data).unwrap();
            array.program(ppn, PageKind::Data, lpn, 4096, 0, 0).unwrap();
            if let Some(old) = map.insert(lpn, ppn) {
                array.invalidate(old).unwrap();
            }
        }
        assert!(alloc.free_fraction() < 0.20, "workload fills the device");
        (array, alloc, map)
    }

    /// Drive a GcState to episode completion in budgeted slices; returns
    /// (merged report, slices).
    fn drain(
        state: &mut GcState,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        map: &mut HashMap<u64, Ppn>,
    ) -> (GcReport, u32) {
        let mut total = GcReport::default();
        let mut slices = 0;
        loop {
            let r = state
                .maybe_collect(
                    array,
                    alloc,
                    0,
                    &mut CopyMigrator(|_: &mut FlashArray, old, new, info: &PageInfo| {
                        let cur = map.get_mut(&info.tag).unwrap();
                        assert_eq!(*cur, old);
                        *cur = new;
                    }),
                )
                .unwrap();
            total.merge(&r);
            slices += 1;
            if !state.in_episode() {
                return (total, slices);
            }
        }
    }

    #[test]
    fn preempted_episode_reaches_the_atomic_end_state() {
        let run = |preempt_pages: u32| {
            let (mut array, mut alloc, mut map) = churned_device();
            let mut state = GcState::new(GcConfig {
                threshold: 0.30,
                hysteresis: 0.10,
                tuning: GcTuning {
                    preempt_pages,
                    // The device is already below threshold × default
                    // urgent_ratio; keep the budget in force so this test
                    // exercises pausing (urgency is covered separately).
                    urgent_ratio: 0.0,
                    ..GcTuning::default()
                },
            });
            let (report, slices) = drain(&mut state, &mut array, &mut alloc, &mut map);
            let mut mapping: Vec<(u64, Ppn)> = map.into_iter().collect();
            mapping.sort_unstable();
            (
                report,
                slices,
                alloc.free_blocks(),
                array.stats().erases,
                array.stats().gc_migrations,
                mapping,
            )
        };
        let atomic = run(0);
        let preempted = run(3);
        assert_eq!(atomic.1, 1, "atomic episode completes in one slice");
        assert!(preempted.1 > 1, "budget of 3 forces multiple slices");
        assert!(preempted.0.preemptions > 0);
        assert_eq!(atomic.0.erased_blocks, preempted.0.erased_blocks);
        assert_eq!(atomic.0.migrated_pages, preempted.0.migrated_pages);
        assert_eq!(atomic.2, preempted.2, "same free blocks at the end");
        assert_eq!(atomic.3, preempted.3, "same erases");
        assert_eq!(atomic.4, preempted.4, "same migrations");
        assert_eq!(atomic.5, preempted.5, "same final mapping");
    }

    #[test]
    fn urgent_low_space_overrides_the_budget() {
        let (mut array, mut alloc, mut map) = churned_device();
        // Free space is already far below threshold × urgent_ratio = 0.45,
        // so even a 1-page budget must collect atomically to the stop mark.
        let mut state = GcState::new(GcConfig {
            threshold: 0.90,
            hysteresis: 0.0,
            tuning: GcTuning {
                preempt_pages: 1,
                urgent_ratio: 0.5,
                ..GcTuning::default()
            },
        });
        assert!(alloc.free_fraction() < 0.45);
        let r = state
            .maybe_collect(
                &mut array,
                &mut alloc,
                0,
                &mut CopyMigrator(|_: &mut FlashArray, old, new, info: &PageInfo| {
                    let cur = map.get_mut(&info.tag).unwrap();
                    assert_eq!(*cur, old);
                    *cur = new;
                }),
            )
            .unwrap();
        assert!(!state.in_episode(), "urgent slice runs to completion");
        assert_eq!(r.preemptions, 0);
        assert!(r.erased_blocks > 0);
    }

    #[test]
    fn idle_collect_is_gated_and_budgeted() {
        let (mut array, mut alloc, mut map) = churned_device();
        let free = alloc.free_fraction();
        let mut remap = |_: &mut FlashArray, old: Ppn, new: Ppn, info: &PageInfo| {
            let cur = map.get_mut(&info.tag).unwrap();
            assert_eq!(*cur, old);
            *cur = new;
        };

        // Disabled (headroom 0): no work even under pressure.
        let mut off = GcState::new(GcConfig {
            threshold: free + 0.05,
            hysteresis: 0.0,
            ..GcConfig::default()
        });
        let r = off
            .idle_collect(&mut array, &mut alloc, 0, 64, &mut CopyMigrator(&mut remap))
            .unwrap();
        assert_eq!(r, GcReport::default());

        // Enabled and below threshold + headroom: budgeted slices make
        // progress and park the episode between calls.
        let mut on = GcState::new(GcConfig {
            threshold: free - 0.02,
            hysteresis: 0.0,
            tuning: GcTuning {
                idle_headroom: 0.10,
                ..GcTuning::default()
            },
        });
        let r = on
            .idle_collect(&mut array, &mut alloc, 0, 2, &mut CopyMigrator(&mut remap))
            .unwrap();
        assert_eq!(r.episodes, 1);
        assert!(r.idle_pages > 0 || r.erased_blocks > 0);
        assert_eq!(r.idle_pages, r.migrated_pages);
        assert!(
            !r.triggered,
            "proactive idle work above the threshold is not a trigger"
        );
        // Draining via idle slices alone terminates.
        let mut guard = 0;
        while on.in_episode() {
            on.idle_collect(&mut array, &mut alloc, 0, 8, &mut CopyMigrator(&mut remap))
                .unwrap();
            guard += 1;
            assert!(guard < 10_000, "idle slices must make progress");
        }
        assert!(alloc.free_fraction() >= free, "idle GC reclaimed space");
    }

    /// Program every page of `addr` (fresh LPNs from `next_lpn`) and
    /// invalidate the first `invalid` of them.
    fn fill_block(array: &mut FlashArray, addr: BlockAddr, invalid: u32, next_lpn: &mut u64) {
        let g = *array.geometry();
        for page in 0..g.pages_per_block {
            let ppn = array.ppn_in_block(addr, page);
            array
                .program(ppn, PageKind::Data, *next_lpn, g.page_bytes, 0, 0)
                .unwrap();
            *next_lpn += 1;
            if page < invalid {
                array.invalidate(ppn).unwrap();
            }
        }
    }

    /// Selection costs what it collects: with thousands of candidates in
    /// the low buckets, a greedy episode that has only started on the top
    /// bucket has materialised the top bucket and nothing else.
    #[test]
    fn greedy_episode_materialises_only_the_buckets_it_reaches() {
        let g = Geometry {
            blocks_per_plane: 1024,
            ..Geometry::tiny()
        };
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        let mut next_lpn = 0u64;
        for plane_idx in 0..g.total_planes() {
            for block in 0..750 {
                let addr = BlockAddr { plane_idx, block };
                fill_block(&mut array, addr, 1 + block % 2, &mut next_lpn);
            }
        }
        for plane_idx in 0..3 {
            let addr = BlockAddr {
                plane_idx,
                block: 1000,
            };
            fill_block(&mut array, addr, 6, &mut next_lpn);
        }
        assert_eq!(array.victim_index().len(), 3003);
        let mut alloc = Allocator::rebuild(&array);

        let mut state = GcState::new(GcConfig {
            threshold: 0.5,
            hysteresis: 0.1,
            tuning: GcTuning {
                preempt_pages: 1,
                urgent_ratio: 0.0,
                ..GcTuning::default()
            },
        });
        let mut copy = CopyMigrator(|_: &mut FlashArray, _, _, _: &PageInfo| {});
        let r = state
            .maybe_collect(&mut array, &mut alloc, 0, &mut copy)
            .unwrap();
        assert_eq!((r.episodes, r.preemptions, r.migrated_pages), (1, 1, 1));
        assert!(state.in_episode(), "one page of budget parks the episode");
        let victims = materialised(&state);
        assert_eq!(victims.len(), 3, "the top bucket and nothing else");
        assert!(victims.iter().all(|c| c.invalid == 6));

        // The low buckets are reached only after the top one is drained:
        // three victims of two valid pages each, one page per slice.
        let mut erased = 0;
        while erased < 3 {
            assert!(materialised(&state).iter().all(|c| c.invalid == 6));
            erased += state
                .maybe_collect(&mut array, &mut alloc, 0, &mut copy)
                .unwrap()
                .erased_blocks;
        }
        let r = state
            .maybe_collect(&mut array, &mut alloc, 0, &mut copy)
            .unwrap();
        assert_eq!(r.migrated_pages, 1);
        let victims = materialised(&state);
        assert_eq!(victims.len(), 1500, "then the 2-invalid bucket");
        assert!(victims.iter().all(|c| c.invalid == 2));
    }

    /// The victims a parked episode has materialised: the one it is
    /// draining, then those queued behind it in the order it takes them.
    fn materialised(state: &GcState) -> Vec<VictimCand> {
        let current = state.episode.as_ref().and_then(|ep| ep.current);
        current
            .into_iter()
            .chain(taking_order(&state.victims))
            .collect()
    }

    /// A device whose only candidates are 1-invalid-page blocks, under a
    /// stop mark it can never reach: the episode collects every candidate
    /// once and ends; the next trigger finds nothing and reports a full
    /// device. Neither call spins.
    #[test]
    fn unreachable_stop_mark_ends_the_episode() {
        let g = Geometry::tiny();
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        let mut next_lpn = 0u64;
        for plane_idx in 0..g.total_planes() {
            for block in 0..10 {
                let addr = BlockAddr { plane_idx, block };
                fill_block(&mut array, addr, 1, &mut next_lpn);
            }
        }
        let mut alloc = Allocator::rebuild(&array);
        let mut state = GcState::new(GcConfig {
            threshold: 0.9,
            hysteresis: 0.0,
            ..GcConfig::default()
        });
        let mut copy = CopyMigrator(|_: &mut FlashArray, _, _, _: &PageInfo| {});

        let r = state
            .maybe_collect(&mut array, &mut alloc, 0, &mut copy)
            .unwrap();
        assert!(!state.in_episode());
        assert_eq!(
            (r.episodes, r.erased_blocks, r.migrated_pages),
            (1, 40, 280)
        );
        assert!(
            alloc.free_fraction() < 0.9,
            "the stop mark was never reached"
        );
        assert!(array.victim_index().is_empty(), "every copy is fully valid");

        let err = state
            .maybe_collect(&mut array, &mut alloc, 0, &mut copy)
            .unwrap_err();
        assert_eq!(err, FlashError::NoFreeBlocks);
        assert!(!state.in_episode());
    }

    /// Every block of the tiny device programmed — block `b` of plane `p`
    /// with `1 + (b + 3p) % 4` invalid pages — so no block is free, with a
    /// power cut armed after `crash_at` flash operations when given.
    fn full_device(crash_at: Option<u64>) -> (FlashArray, Allocator) {
        let g = Geometry::tiny();
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        if let Some(crash_at) = crash_at {
            array.arm_crash(crash_at);
        }
        let mut next_lpn = 0u64;
        for plane_idx in 0..g.total_planes() {
            for block in 0..g.blocks_per_plane {
                let invalid = 1 + (block + 3 * plane_idx as u32) % 4;
                fill_block(
                    &mut array,
                    BlockAddr { plane_idx, block },
                    invalid,
                    &mut next_lpn,
                );
            }
        }
        let alloc = Allocator::rebuild(&array);
        assert_eq!(alloc.free_blocks(), 0);
        (array, alloc)
    }

    /// Supersede every valid page of the device's first block, which makes
    /// it the one fully invalid block and the greediest victim.
    fn supersede_first_block(array: &mut FlashArray) {
        let first = BlockAddr {
            plane_idx: 0,
            block: 0,
        };
        let mut valid = Vec::new();
        array.valid_pages_into(first, &mut valid);
        for (ppn, _) in valid {
            array.invalidate(ppn).unwrap();
        }
    }

    /// One foreground collection with one-to-one copies: its result and
    /// the victims it copied pages out of, in order.
    fn collect_in_order(
        state: &mut GcState,
        array: &mut FlashArray,
        alloc: &mut Allocator,
    ) -> (Result<GcReport>, Vec<BlockAddr>) {
        let mut victims: Vec<BlockAddr> = Vec::new();
        let r = state.maybe_collect(
            array,
            alloc,
            0,
            &mut CopyMigrator(|array: &mut FlashArray, old, _, _: &PageInfo| {
                let source = array.block_addr_of(old);
                if victims.last() != Some(&source) {
                    victims.push(source);
                }
            }),
        );
        (r, victims)
    }

    /// An episode cut mid-victim — by a power cut after two of its pages
    /// moved, or by `NoFreeBlocks` on its first — gives the victim back to
    /// the index at its old stamp, and the next episode erases the same
    /// block sequence an uninterrupted run does.
    #[test]
    fn an_episode_cut_mid_victim_gives_the_victim_back() {
        let cfg = GcConfig {
            threshold: 0.9,
            hysteresis: 0.0,
            ..GcConfig::default()
        };
        let programs = Geometry::tiny().total_pages();
        for power_cut in [true, false] {
            // The uninterrupted run: the superseded block first, then every
            // other candidate.
            let (mut array, mut alloc) = full_device(power_cut.then_some(u64::MAX));
            supersede_first_block(&mut array);
            let (r, reference) = collect_in_order(&mut GcState::new(cfg), &mut array, &mut alloc);
            r.unwrap();
            let reference_wear: Vec<u64> = array.erase_counts().collect();

            // The power cut lands on the third copy's program: after the
            // fill, the superseded block's erase and two page moves.
            let (mut array, mut alloc) = full_device(power_cut.then_some(programs + 1 + 2 * 2 + 1));
            if power_cut {
                supersede_first_block(&mut array);
            }
            let victim = reference[0];
            let index = array.victim_index();
            let (stamp, tick) = (index.stamp_of(victim), index.tick());
            assert!(stamp.is_some());
            let mut state = GcState::new(cfg);
            let (r, mut cut) = collect_in_order(&mut state, &mut array, &mut alloc);
            let expected = if power_cut {
                FlashError::PowerCut
            } else {
                FlashError::NoFreeBlocks
            };
            assert_eq!(r.unwrap_err(), expected);
            assert!(!state.in_episode());
            assert_eq!(cut, if power_cut { vec![victim] } else { vec![] });

            let index = array.victim_index();
            assert!(!index.is_held(victim));
            assert_eq!(index.stamp_of(victim), stamp, "{expected:?}: the old stamp");
            assert_eq!(index.tick(), tick, "{expected:?}: no new entry");
            let invalid = array.block_summary(victim).invalid;
            assert_eq!(index.invalid_of(victim), Some(invalid));
            assert_eq!(invalid, if power_cut { 4 + 2 } else { 4 });
            array.check_victim_index().unwrap();

            if power_cut {
                array.power_restore();
            } else {
                supersede_first_block(&mut array);
            }
            let (r, rest) = collect_in_order(&mut state, &mut array, &mut alloc);
            r.unwrap();
            let resumed = rest.first() == cut.last();
            cut.extend(rest.into_iter().skip(usize::from(resumed)));
            assert_eq!(
                cut, reference,
                "{expected:?}: the same victims in the same order"
            );
            assert!(array.erase_counts().eq(reference_wear), "{expected:?}");
        }
    }

    #[test]
    fn policies_order_deterministically_and_skip_nothing() {
        let mk = |invalid, plane_idx, block, stamp| VictimCand {
            invalid,
            plane_idx,
            block,
            stamp,
        };
        let base = vec![
            mk(3, 0, 1, 10),
            mk(7, 0, 4, 2),
            mk(7, 1, 0, 5),
            mk(1, 1, 3, 0),
            mk(5, 2, 2, 7),
        ];
        for policy in [GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::Windowed] {
            let mut a = base.clone();
            order_victims(policy, 2, 8, &mut a);
            // The order is a function of the candidate set, not of how it
            // was enumerated: every rotation, forwards and reversed, of
            // the input gives the same output.
            for rot in 0..base.len() {
                for reversed in [false, true] {
                    let mut b = base.clone();
                    b.rotate_left(rot);
                    if reversed {
                        b.reverse();
                    }
                    order_victims(policy, 2, 8, &mut b);
                    assert_eq!(a, b, "{policy:?} depends on the input order");
                }
            }
            let mut sorted_a = a.clone();
            sorted_a.sort_unstable_by_key(|c| (c.plane_idx, c.block));
            let mut sorted_base = base.clone();
            sorted_base.sort_unstable_by_key(|c| (c.plane_idx, c.block));
            assert_eq!(sorted_a, sorted_base, "{policy:?} permutes, never drops");
        }
        // Greedy: most-invalid first, oldest among equals.
        let mut g = base.clone();
        order_victims(GcPolicy::Greedy, 2, 8, &mut g);
        assert_eq!(
            g,
            vec![
                mk(7, 0, 4, 2),
                mk(7, 1, 0, 5),
                mk(5, 2, 2, 7),
                mk(3, 0, 1, 10),
                mk(1, 1, 3, 0),
            ]
        );
        // Windowed: first pick is the greediest of the 2 oldest.
        let mut w = base.clone();
        order_victims(GcPolicy::Windowed, 2, 8, &mut w);
        assert_eq!(w[0], mk(7, 0, 4, 2), "greediest among stamps {{0, 2}}");
        // Cost-benefit: a fully-invalid old block beats a fresher fuller
        // one on benefit/cost.
        let mut cb = vec![mk(8, 0, 0, 0), mk(8, 0, 1, 9), mk(4, 0, 2, 1)];
        order_victims(GcPolicy::CostBenefit, 2, 8, &mut cb);
        assert_eq!(cb[0], mk(8, 0, 0, 0), "oldest free win scores highest");
    }

    #[test]
    fn gc_policy_labels_round_trip() {
        for p in [GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::Windowed] {
            assert_eq!(GcPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(GcPolicy::parse("nope"), None);
    }
}
