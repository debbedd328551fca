//! Learned LPN→PPN mapping: a fourth FTL comparator that kills
//! translation-page double reads (LearnedFTL-style).
//!
//! The three paper schemes all pay a "double read" when the DFTL mapping
//! cache misses: a map-in flash read fetches the translation page before
//! the data read can issue. This module replaces most of those map-ins
//! with **piecewise-linear models** over LPN→PPN runs:
//!
//! * A `RunTracker` watches every data-page program. Consecutive
//!   physical pages whose LPNs advance by a constant stride grow an
//!   *open* `Segment` in the `SegmentStore` — an exact linear model
//!   `ppn = base + (lpn − start) / stride` with integer arithmetic only.
//!   When the run closes (adjacency breaks, the tracker fills, or a member
//!   is overwritten) the same segment joins the store's installed ones.
//!   Sequential host writes and the GC migrator's sorted repack are the
//!   two big run producers. A segment carries its `stride` — plane
//!   striping makes stride = #planes the common case, and a 2-member run
//!   takes whatever gap its two LPNs had — so segments interleave and
//!   overlap in LPN range, and no ordering of them finds an LPN's model.
//! * One **membership index** does: a dense per-LPN table (4 B per
//!   logical page) whose entry names the single segment — open or
//!   installed — that holds the LPN as a live member. "Does the model
//!   cover this LPN", the question every read *and every program* asks, is
//!   one probe plus one divide (LearnedFTL's per-model bitmap filter plays
//!   the same role), and "at most one model holds an LPN" is structural:
//!   an entry has room for one segment. Segments live in one slab and keep
//!   their slab id from the moment their run opens, so closing a run
//!   rewrites no entry; the start-LPN order of the installed segments is
//!   kept only as a list of slab ids, because the clock eviction is
//!   defined over it.
//! * The read path is **predict-then-verify**: the model predicts a PPN
//!   window ([`LearnedConfig::max_error`] wide, default exact), the
//!   candidate page's on-flash OOB LPN tag verifies the prediction, and
//!   the verifying read *is* the data read — no translation-page access
//!   at all. A mis-predict punches the stale member out of its segment
//!   and falls back to the PMT via the shared [`crate::MapEngine`], so serial
//!   mode stays deterministic and pipelined mode batches fallback
//!   map-ins exactly like the baseline.
//! * Writes and GC relocation **retrain**: every program punches the
//!   LPN's old membership (segments accumulate holes; at
//!   [`LearnedConfig::retrain_threshold`] holes the segment is rebuilt by
//!   splitting into its hole-free subruns) and feeds the new (lpn, ppn)
//!   pair to the tracker. The learned GC migrator buffers a slice's
//!   valid data pages, sorts them by LPN and repacks them into one plane
//!   so relocation *recreates* runs instead of shredding them.
//!
//! Simulation concession, documented for honesty: probing a candidate's
//! OOB tag via [`FlashArray::page_info`] is free when the candidate is
//! invalid/erased (a real device would discover that from the same read
//! it charges); a *valid* candidate with the wrong tag charges a full
//! wasted flash read. With the default exact models (`max_error = 0`)
//! mis-predicts are rare — punch-on-write keeps installed members
//! current — so the charged path is the common one.

use aftl_flash::{
    Allocator, FlashArray, Nanos, PageInfo, PageKind, PageStamps, PageState, Ppn, Result, StreamId,
};
use serde::{Deserialize, Serialize};

use crate::gc::{GcReport, PageMigrator};
use crate::pagemap::{scheme_core_methods, CoreMigrator, PageMapCore};
use crate::recovery::SchemeImage;
use crate::request::{HostRequest, ReqKind};
use crate::scheme::{FtlEnv, FtlScheme, SchemeConfig, SchemeKind, ServiceOutcome};

/// Learned-mapping knobs, carried in [`SchemeConfig`]; only the learned
/// scheme reads them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LearnedConfig {
    /// Half-width of the prediction window in pages: a prediction probes
    /// `pred`, then `pred±1` … `pred±max_error` until a candidate's OOB
    /// tag verifies. `0` (the default) means models are exact — segments
    /// are built only from observed runs, so the window buys nothing
    /// unless segments are allowed to approximate.
    pub max_error: u32,
    /// Rebuild (split into hole-free subruns) a segment once this many of
    /// its members have been punched out by overwrites or relocation.
    pub retrain_threshold: u32,
    /// Minimum members for a closed run to be installed as a segment. The
    /// default of 1 ingests every program — isolated single-page writes
    /// become single-member segments, like LeaFTL's point outliers — so
    /// random-overwrite regions stay predictable, not just sequential runs.
    pub min_run: u32,
    /// Segment-store capacity; at capacity, installing a segment evicts a
    /// low-coverage victim (clock scan over live member counts).
    pub max_segments: u32,
}

impl Default for LearnedConfig {
    fn default() -> Self {
        LearnedConfig {
            max_error: 0,
            retrain_threshold: 16,
            min_run: 1,
            max_segments: 4096,
        }
    }
}

/// Learned-mapping event counters (the manifest's `learned` section).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LearnedStats {
    /// Reads served straight off a verified prediction (no PMT access).
    pub predict_hits: u64,
    /// Predictions whose window held no page tagged with the wanted LPN;
    /// the read fell back to the PMT and the stale member was punched.
    pub mispredicts: u64,
    /// Flash reads issued on the predict path: the verifying data read of
    /// every hit plus any charged wrong-tag window probes.
    pub verify_reads: u64,
    /// Segments rebuilt (split into hole-free subruns) after accumulating
    /// [`LearnedConfig::retrain_threshold`] punched members.
    pub segment_rebuilds: u64,
    /// Predict hits whose PMT fallback would have issued a map-in flash
    /// read at that moment (translation page not resident but on flash) —
    /// the double reads the model actually killed.
    pub map_ins_saved: u64,
}

impl LearnedStats {
    /// Accumulate another device's counters (fleet aggregation).
    pub fn merge(&mut self, o: &LearnedStats) {
        self.predict_hits += o.predict_hits;
        self.mispredicts += o.mispredicts;
        self.verify_reads += o.verify_reads;
        self.segment_rebuilds += o.segment_rebuilds;
        self.map_ins_saved += o.map_ins_saved;
    }

    /// Field-wise `self − b` (measured-window deltas).
    pub fn delta(&self, b: &LearnedStats) -> LearnedStats {
        LearnedStats {
            predict_hits: self.predict_hits - b.predict_hits,
            mispredicts: self.mispredicts - b.mispredicts,
            verify_reads: self.verify_reads - b.verify_reads,
            segment_rebuilds: self.segment_rebuilds - b.segment_rebuilds,
            map_ins_saved: self.map_ins_saved - b.map_ins_saved,
        }
    }
}

// ---------------------------------------------------------------------------
// Membership index
// ---------------------------------------------------------------------------

/// Dense per-LPN table of the [`SegmentStore`] slab id — open or installed
/// segment — that holds each LPN as a live member: 4 B per logical page
/// (`0` = unmodelled, `id + 1` otherwise), grown to the highest LPN any
/// model has held. It makes "which model predicts this LPN" one probe, and
/// the single-owner invariant structural — an entry has room for one id,
/// and every write to it states the id it expects to replace.
#[derive(Debug, Clone, Default)]
struct MemberIndex {
    entries: Vec<u32>,
}

impl MemberIndex {
    #[inline]
    fn get(&self, lpn: u64) -> Option<u32> {
        self.entries.get(lpn as usize)?.checked_sub(1)
    }

    /// Pass `lpn` from segment `from` to segment `to` (`None` = unmodelled).
    #[inline]
    fn hand_over(&mut self, lpn: u64, from: Option<u32>, to: Option<u32>) {
        debug_assert_eq!(
            self.get(lpn),
            from,
            "lpn {lpn} is not held by the model giving it up"
        );
        let i = lpn as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, 0);
        }
        self.entries[i] = to.map_or(0, |id| id + 1);
    }
}

// ---------------------------------------------------------------------------
// Segment store
// ---------------------------------------------------------------------------

/// One piecewise-linear model: the members `start_lpn + i × stride` for
/// `i < len` map to `base_ppn + i`. `holes` lists punched member indices
/// (overwritten or relocated since the run was observed); a hole is not a
/// member and never predicted.
///
/// An *open* segment is a run the [`RunTracker`] is still growing: it has
/// its slab id and index entries from its first member on, but is not yet
/// in the store's `order`, and it has no holes — a punch closes it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Segment {
    start_lpn: u64,
    /// LPN distance between consecutive members (≥ 1; the plane-striping
    /// allocator makes stride = #planes the common case for sequential
    /// host writes, stride 1 for the GC repack, and a 2-member run takes
    /// whatever gap its two LPNs had). A one-member segment has stride 1:
    /// `len == 1` is what "stride not yet fixed" means to an open run.
    stride: u64,
    base_ppn: u64,
    len: u32,
    /// Punched member indices, sorted ascending.
    holes: Vec<u32>,
    /// Whether the run was created by GC relocation (diagnostics only).
    from_gc: bool,
    /// Whether the [`RunTracker`] is still growing the run.
    open: bool,
}

impl Segment {
    /// Member index of `lpn`, if it is an unpunched member. This is the
    /// definition of membership; the hot paths take the [`MemberIndex`]'s
    /// word for it and use [`Segment::member`].
    fn index_of(&self, lpn: u64) -> Option<u32> {
        if lpn < self.start_lpn {
            return None;
        }
        let d = lpn - self.start_lpn;
        if !d.is_multiple_of(self.stride) {
            return None;
        }
        let i = d / self.stride;
        if i >= u64::from(self.len) {
            return None;
        }
        let i = i as u32;
        if self.holes.binary_search(&i).is_ok() {
            return None;
        }
        Some(i)
    }

    /// Member index of `lpn`, which the index says this segment holds.
    #[inline]
    fn member(&self, lpn: u64) -> u32 {
        let m = ((lpn - self.start_lpn) / self.stride) as u32;
        debug_assert_eq!(self.index_of(lpn), Some(m), "index names a non-member");
        m
    }

    /// Members not punched out.
    #[inline]
    fn live(&self) -> u32 {
        self.len - self.holes.len() as u32
    }

    /// LPNs of the members not punched out, ascending.
    fn live_lpns(&self) -> impl Iterator<Item = u64> + '_ {
        let mut holes = self.holes.iter().copied().peekable();
        (0..self.len)
            .filter(move |m| holes.next_if_eq(m).is_none())
            .map(|m| self.start_lpn + u64::from(m) * self.stride)
    }
}

/// Every model, open runs included, in one slab.
///
/// Segments interleave and overlap in LPN range (two plane-striped runs
/// cover the same span on different residues; a 2-member outlier can span
/// the whole device), so no ordering of them answers "who holds this LPN".
/// The [`MemberIndex`] does: a segment's live members name its slab id,
/// which it keeps from the moment its run opens until it leaves the model.
/// The start-LPN order of the installed (closed) segments survives only as
/// `order`, a list of slab ids, because the clock eviction is defined over
/// positions in it.
///
/// Costs: a probe is O(1); opening or extending a run is one index write;
/// closing one is O(log n) compares plus a shift of at most 4 B × n in
/// `order`; evicting or dropping a segment is one index write per live
/// member.
///
/// Invariant (maintained by punch-on-program, asserted in debug builds at
/// every index write): at most one segment — installed or open — holds any
/// LPN as a live member, and that member's prediction is current: a
/// program always punches the LPN's old membership before the new pair can
/// be observed. Predictions go stale through capacity eviction only in the
/// sense of *disappearing*, never of being wrong, so the verify path is a
/// safety net rather than the common case.
#[derive(Debug, Clone)]
struct SegmentStore {
    /// Segment slab; `free` lists the vacant slots (each holding an empty
    /// default segment).
    slab: Vec<Segment>,
    free: Vec<u32>,
    /// Slab ids of the installed segments by `start_lpn`, equal starts in
    /// install order. Open runs are not in it.
    order: Vec<u32>,
    index: MemberIndex,
    cfg: LearnedConfig,
    /// Clock hand for capacity eviction, a position in `order`.
    evict_cursor: usize,
}

impl SegmentStore {
    fn new(cfg: LearnedConfig) -> Self {
        SegmentStore {
            slab: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            index: MemberIndex::default(),
            cfg,
            evict_cursor: 0,
        }
    }

    /// The installed segments, in `order`.
    fn installed(&self) -> impl Iterator<Item = &Segment> + '_ {
        self.order.iter().map(|&id| &self.slab[id as usize])
    }

    /// Prediction for `lpn`, which the index says segment `id` holds.
    #[inline]
    fn member_ppn(&self, id: u32, lpn: u64) -> Ppn {
        let seg = &self.slab[id as usize];
        Ppn(seg.base_ppn + u64::from(seg.member(lpn)))
    }

    /// Put `seg` in a vacant slab slot and hand its live members over from
    /// segment `from` (`None` for members nobody held). Returns its id.
    fn place(&mut self, seg: Segment, from: Option<u32>) -> u32 {
        let id = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Segment::default());
            (self.slab.len() - 1) as u32
        });
        self.slab[id as usize] = seg;
        for lpn in self.slab[id as usize].live_lpns() {
            self.index.hand_over(lpn, from, Some(id));
        }
        id
    }

    /// Vacate slab slot `id`, returning its segment. Its live members still
    /// name `id`; the caller hands them over.
    fn take(&mut self, id: u32) -> Segment {
        self.free.push(id);
        std::mem::take(&mut self.slab[id as usize])
    }

    /// Take segment `id` out of the model: its live members go unmodelled.
    fn discard(&mut self, id: u32) {
        for lpn in self.take(id).live_lpns() {
            self.index.hand_over(lpn, Some(id), None);
        }
    }

    /// Insert installed segment `id` into `order`, after every segment
    /// starting at or before it.
    fn insert_order(&mut self, id: u32) {
        let start = self.slab[id as usize].start_lpn;
        let at = self
            .order
            .partition_point(|&i| self.slab[i as usize].start_lpn <= start);
        self.order.insert(at, id);
    }

    /// Grow open run `id` by `lpn`, just programmed at the run's next PPN,
    /// if `lpn` continues its progression — while the stride is not yet
    /// fixed, any larger LPN fixes it. Returns whether the run grew.
    fn extend(&mut self, id: u32, lpn: u64) -> bool {
        let run = &mut self.slab[id as usize];
        let last = run.start_lpn + u64::from(run.len - 1) * run.stride;
        let extends = if run.len == 1 {
            lpn > last
        } else {
            lpn == last.wrapping_add(run.stride)
        };
        if extends {
            if run.len == 1 {
                run.stride = lpn - last;
            }
            run.len += 1;
            self.index.hand_over(lpn, None, Some(id));
        }
        extends
    }

    /// Close open run `id`: under the same id it joins `order` (then the
    /// capacity check runs), or — with fewer than `min_run` live members —
    /// leaves the model.
    fn close(&mut self, id: u32) {
        let run = &mut self.slab[id as usize];
        run.open = false;
        if run.live() >= self.cfg.min_run {
            self.insert_order(id);
            self.enforce_capacity();
        } else {
            self.discard(id);
        }
    }

    /// Punch `lpn` out of segment `id`, which the index says holds it (the
    /// LPN moved or died). An installed segment is split into hole-free
    /// subruns once it carries [`LearnedConfig::retrain_threshold`] holes;
    /// an open one is left to its tracker to close.
    fn punch_member(&mut self, id: u32, lpn: u64, stats: &mut LearnedStats) {
        let seg = &mut self.slab[id as usize];
        let m = seg.member(lpn);
        let pos = seg.holes.partition_point(|&h| h < m);
        seg.holes.insert(pos, m);
        self.index.hand_over(lpn, Some(id), None);
        if !seg.open
            && (seg.holes.len() as u32 >= self.cfg.retrain_threshold
                || seg.live() < self.cfg.min_run)
        {
            self.rebuild(id);
            stats.segment_rebuilds += 1;
        }
    }

    /// Replace installed segment `id` by its maximal hole-free subruns of
    /// at least `min_run` members.
    fn rebuild(&mut self, id: u32) {
        let start = self.slab[id as usize].start_lpn;
        let first = self
            .order
            .partition_point(|&i| self.slab[i as usize].start_lpn < start);
        let pos = first
            + self.order[first..]
                .iter()
                .position(|&i| i == id)
                .expect("an installed segment is in the order");
        self.order.remove(pos);
        let seg = self.take(id);
        let mut from = 0;
        for to in seg.holes.iter().copied().chain([seg.len]) {
            // Members [from, to) with no holes.
            let sub = Segment {
                start_lpn: seg.start_lpn + u64::from(from) * seg.stride,
                stride: seg.stride,
                base_ppn: seg.base_ppn + u64::from(from),
                len: to - from,
                from_gc: seg.from_gc,
                ..Segment::default()
            };
            if sub.len >= self.cfg.min_run {
                let sub = self.place(sub, Some(id));
                self.insert_order(sub);
            } else {
                for lpn in sub.live_lpns() {
                    self.index.hand_over(lpn, Some(id), None);
                }
            }
            from = to + 1;
        }
    }

    /// Evict low-coverage segments while over capacity: an 8-probe clock
    /// scan over `order` picks the victim with the fewest live members.
    fn enforce_capacity(&mut self) {
        while self.order.len() > self.cfg.max_segments as usize {
            let n = self.order.len();
            let live_at = |pos: usize| self.slab[self.order[pos] as usize].live();
            let mut victim = self.evict_cursor % n;
            let mut best = live_at(victim);
            for k in 1..8.min(n) {
                let i = (self.evict_cursor + k) % n;
                let l = live_at(i);
                if l < best {
                    best = l;
                    victim = i;
                }
            }
            self.evict_cursor = victim;
            let id = self.order.remove(victim);
            self.discard(id);
        }
    }

    /// Installed segments.
    #[inline]
    fn len(&self) -> usize {
        self.order.len()
    }

    /// Segments created by the GC repack.
    fn gc_trained_count(&self) -> usize {
        self.installed().filter(|s| s.from_gc).count()
    }

    /// Modelled DRAM footprint: 16 B per segment (start/stride/base/len
    /// packed) plus 4 B per hole.
    fn model_bytes(&self) -> u64 {
        self.installed()
            .map(|s| 16 + 4 * s.holes.len() as u64)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Run tracker
// ---------------------------------------------------------------------------

/// Grows open runs at program time and closes them into the
/// [`SegmentStore`]. Keyed by physical adjacency: a program at an open
/// run's next PPN whose LPN continues the progression extends the run;
/// anything else closes it. An open run is an open [`Segment`] in the
/// store's slab, so the [`MemberIndex`] names and predicts it like any
/// installed one.
#[derive(Debug, Clone)]
struct RunTracker {
    /// Slab id and last-extended tick (for LRU closing) of each open run,
    /// in `push` / `swap_remove` order: the first-match extension lookup
    /// and the oldest-tick pick are defined over it.
    open: Vec<(u32, u64)>,
    capacity: usize,
    tick: u64,
}

impl RunTracker {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RunTracker {
            open: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
        }
    }

    /// Observe a data-page program of `lpn` at `ppn`. The caller has
    /// punched `lpn`'s old membership: nobody holds it now.
    fn note_program(&mut self, lpn: u64, ppn: Ppn, from_gc: bool, store: &mut SegmentStore) {
        self.tick += 1;
        let p = ppn.0;
        if let Some(i) = self.open.iter().position(|&(id, _)| {
            let run = &store.slab[id as usize];
            run.base_ppn + u64::from(run.len) == p
        }) {
            let id = self.open[i].0;
            if store.extend(id, lpn) {
                self.open[i].1 = self.tick;
                return;
            }
            // Physically adjacent but the LPN progression broke: close.
            self.open.swap_remove(i);
            store.close(id);
        }
        if self.open.len() >= self.capacity {
            // Close the least recently extended run.
            let oldest = (0..self.open.len()).min_by_key(|&i| self.open[i].1);
            let (id, _) = self.open.swap_remove(oldest.expect("capacity ≥ 1"));
            store.close(id);
        }
        let run = Segment {
            start_lpn: lpn,
            stride: 1,
            base_ppn: p,
            len: 1,
            from_gc,
            open: true,
            ..Segment::default()
        };
        self.open.push((store.place(run, None), self.tick));
    }
}

// ---------------------------------------------------------------------------
// The model: one slab of segments, some open, behind one index
// ---------------------------------------------------------------------------

/// How many runs the tracker keeps open at once — comfortably above the
/// plane count of any modelled device, so per-plane host streams and the
/// GC repack never thrash each other out.
const TRACKER_CAPACITY: usize = 32;

/// Everything that predicts: the store's segments, installed and open,
/// looked up through its one [`MemberIndex`], and the tracker that grows
/// the open ones.
#[derive(Debug, Clone)]
struct LearnedModel {
    store: SegmentStore,
    tracker: RunTracker,
}

impl LearnedModel {
    /// A model whose tracker keeps up to `runs` runs open.
    fn new(cfg: LearnedConfig, runs: usize) -> Self {
        LearnedModel {
            store: SegmentStore::new(cfg),
            tracker: RunTracker::new(runs),
        }
    }

    /// Model prediction for `lpn`: one index probe, one divide.
    #[inline]
    fn predict(&self, lpn: u64) -> Option<Ppn> {
        let id = self.store.index.get(lpn)?;
        Some(self.store.member_ppn(id, lpn))
    }

    /// `lpn` moved or died: punch it out of whichever segment holds it,
    /// closing that segment's run if it is still open.
    fn punch(&mut self, lpn: u64, stats: &mut LearnedStats) {
        let Some(id) = self.store.index.get(lpn) else {
            return;
        };
        self.store.punch_member(id, lpn, stats);
        if self.store.slab[id as usize].open {
            let open = &mut self.tracker.open;
            let i = open.iter().position(|&(run, _)| run == id);
            open.swap_remove(i.expect("an open segment is tracked"));
            self.store.close(id);
        }
    }

    /// Retrain after a data-page program: punch the LPN's old membership,
    /// then feed the new pair to the tracker.
    fn note_program(&mut self, lpn: u64, ppn: Ppn, from_gc: bool, stats: &mut LearnedStats) {
        self.punch(lpn, stats);
        self.tracker
            .note_program(lpn, ppn, from_gc, &mut self.store);
    }

    /// Debug oracle: every index entry names a segment in which that LPN
    /// is a live member; every live member of every installed or open
    /// segment has its entry; and the open segments are exactly the
    /// tracked ones, none of them in `order`. Returns a description of the
    /// first divergence, if any.
    #[cfg(any(test, debug_assertions))]
    fn check_index(&self) -> std::result::Result<(), String> {
        let store = &self.store;
        for (lpn, &entry) in store.index.entries.iter().enumerate() {
            let Some(id) = entry.checked_sub(1) else {
                continue;
            };
            // A vacant slab slot holds an empty segment: no members.
            let seg = store.slab.get(id as usize);
            if !seg.is_some_and(|s| s.len > 0 && s.index_of(lpn as u64).is_some()) {
                return Err(format!(
                    "lpn {lpn}: entry names segment {id}, which does not hold it"
                ));
            }
        }
        let installed = store.order.iter().map(|&id| (id, false));
        let open = self.tracker.open.iter().map(|&(id, _)| (id, true));
        for (id, tracked) in installed.chain(open) {
            let seg = &store.slab[id as usize];
            if seg.open != tracked {
                return Err(format!(
                    "segment {id}: open {}, tracked {tracked}",
                    seg.open
                ));
            }
            if let Some(lpn) = seg.live_lpns().find(|&l| store.index.get(l) != Some(id)) {
                return Err(format!(
                    "lpn {lpn}: live member of segment {id}, entry says {:?}",
                    store.index.get(lpn)
                ));
            }
        }
        if store.slab.iter().filter(|s| s.open).count() != self.tracker.open.len() {
            return Err("an open segment is not tracked".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The learned FTL scheme
// ---------------------------------------------------------------------------

/// The learned-mapping FTL: the page-mapped core plus the model and
/// predict-then-verify read path described in the module docs.
#[derive(Clone)]
pub struct LearnedFtl {
    pub(crate) core: PageMapCore,
    model: LearnedModel,
    stats: LearnedStats,
    /// Round-robin plane for the GC repack (each flush fills one plane so
    /// its programs are physically consecutive).
    gc_plane_cursor: u64,
    /// The repack buffer, lent to each [`LearnedMigrator`] and kept
    /// between collections so steady-state GC allocates nothing.
    gc_buf: Vec<BufferedPage>,
}

impl LearnedFtl {
    /// Construct a learned FTL for the given device geometry.
    pub fn new(env_geometry: &aftl_flash::Geometry, cfg: SchemeConfig) -> Self {
        LearnedFtl {
            core: PageMapCore::new(env_geometry, cfg, crate::baseline::ENTRY_BYTES),
            model: LearnedModel::new(cfg.learned, TRACKER_CAPACITY),
            stats: LearnedStats::default(),
            gc_plane_cursor: 0,
            gc_buf: Vec::new(),
        }
    }

    /// Construct a learned FTL preloaded with a recovered mapping (see
    /// [`crate::recovery`]); it holds whole pages only. Segments and runs
    /// start empty — reads fall back to the PMT and models retrain as
    /// writes arrive.
    pub fn from_image(
        geometry: &aftl_flash::Geometry,
        cfg: SchemeConfig,
        image: &SchemeImage,
    ) -> Self {
        let mut ftl = Self::new(geometry, cfg);
        image.assert_holds(SchemeKind::Learned, false, false);
        ftl.core.load_pages(geometry, &image.pages);
        ftl
    }

    /// Installed segments (tests / diagnostics).
    pub fn segments(&self) -> usize {
        self.model.store.len()
    }

    /// Installed segments created by the GC repack.
    pub fn gc_segments(&self) -> usize {
        self.model.store.gc_trained_count()
    }

    fn run_gc(&mut self, env: &mut FtlEnv<'_>, idle_budget: Option<u64>) -> Result<GcReport> {
        // A slice that failed before its `finish` left its pages behind;
        // the next collection starts, as a new migrator always has, empty.
        self.gc_buf.clear();
        let (gc, core) = self.core.gc_parts();
        let mut migrator = LearnedMigrator {
            core,
            model: &mut self.model,
            stats: &mut self.stats,
            plane_cursor: &mut self.gc_plane_cursor,
            buf: &mut self.gc_buf,
        };
        gc.collect(env.array, env.alloc, env.now_ns, idle_budget, &mut migrator)
    }
}

impl FtlScheme for LearnedFtl {
    fn write(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Write);
        self.core.ensure_pmt();
        self.core.counters.host_writes += 1;
        let mut outcome = ServiceOutcome::default();
        for extent in req.extents(env.spp()) {
            // The write path is the baseline's, bit for bit: the PMT stays
            // the source of truth and the model only ever shadows it.
            let ready = self.core.map_access(env, extent.lpn, true)?;
            let done = self
                .core
                .program_extent(env, &extent, req.version, ready, None)?;
            outcome.merge_time(done);
            let new_ppn = self.core.pmt.get(extent.lpn).ppn;
            self.model
                .note_program(extent.lpn, new_ppn, false, &mut self.stats);
        }
        Ok(outcome)
    }

    fn read(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Read);
        self.core.ensure_pmt();
        self.core.counters.host_reads += 1;
        let max_error = self.core.cfg.learned.max_error;
        let total_pages = env.geometry().total_pages();
        let mut outcome = ServiceOutcome::default();
        for extent in req.extents(env.spp()) {
            // CMT first, model second (the LearnedFTL lookup order): when
            // the translation page is resident — or has never been flushed
            // to flash — the PMT consultation is free of flash reads, and
            // taking it keeps the cache's LRU state bit-identical to the
            // baseline's. The model is only deployed when the consultation
            // would charge a map-in flash read, so every verified
            // prediction below avoids a real double read.
            let would_load = self.core.engine.would_load(self.core.tpid(extent.lpn));
            // Model consultation: one DRAM access, like a cache hit.
            self.core.counters.dram_accesses += 1;
            let consult_ready = env.now_ns + env.array.timing().cache_access_ns;
            let mut served = false;
            if let Some(pred) = self.model.predict(extent.lpn).filter(|_| would_load) {
                let mut ready = consult_ready;
                // Probe the window centre-out — pred, pred+1, pred−1, … —
                // clipped to the device.
                let window = std::iter::once(0)
                    .chain((1..=i64::from(max_error)).flat_map(|d| [d, -d]))
                    .map(|delta| pred.0 as i64 + delta)
                    .filter(|&p| p >= 0 && (p as u64) < total_pages);
                for cand in window.map(|p| Ppn(p as u64)) {
                    let Ok(info) = env.array.page_info(cand) else {
                        continue;
                    };
                    if !info.is_valid() || info.kind != PageKind::Data {
                        continue;
                    }
                    self.stats.verify_reads += 1;
                    if info.tag == extent.lpn {
                        // Verified: this read is the data read. The PMT
                        // invariant (exactly one valid data page per LPN)
                        // makes it the same page the fallback would read.
                        debug_assert_eq!(
                            cand,
                            self.core.pmt.get(extent.lpn).ppn,
                            "verified prediction disagrees with the PMT"
                        );
                        // `would_load` held above, so the fallback would
                        // have charged a map-in: this verify avoided it.
                        self.stats.map_ins_saved += 1;
                        self.core
                            .serve_extent(env, cand, &extent, ready, &mut outcome)?;
                        self.stats.predict_hits += 1;
                        served = true;
                        break;
                    }
                    // Valid page, wrong LPN: a wasted verify read, charged.
                    let r = env.array.read_with_retry(
                        cand,
                        env.geometry().sector_bytes,
                        env.now_ns,
                        ready,
                    )?;
                    ready = ready.max(r.complete_ns());
                }
                if !served {
                    self.stats.mispredicts += 1;
                    self.model.punch(extent.lpn, &mut self.stats);
                    outcome.merge_time(ready);
                }
            }
            if served {
                continue;
            }
            // Fallback: the baseline PMT path through the shared engine.
            let ready = self.core.map_access(env, extent.lpn, false)?;
            outcome.merge_time(ready);
            let ppn = self.core.pmt.get(extent.lpn).ppn;
            self.core
                .serve_extent(env, ppn, &extent, ready, &mut outcome)?;
        }
        Ok(outcome)
    }

    scheme_core_methods!();

    fn learned_stats(&self) -> LearnedStats {
        self.stats
    }

    fn mapping_table_bytes(&self) -> u64 {
        // PMT tpage footprint (the fallback is still a full DFTL table)
        // plus the modelled segment-store bytes.
        self.core.table_bytes() + self.model.store.model_bytes()
    }

    fn capture_image(&self) -> SchemeImage {
        self.core.image()
    }
}

// ---------------------------------------------------------------------------
// GC migrator: sorted repack
// ---------------------------------------------------------------------------

/// A valid data page buffered during a GC slice, awaiting the sorted
/// repack at [`PageMigrator::finish`].
#[derive(Clone)]
struct BufferedPage {
    lpn: u64,
    stamps: Option<PageStamps>,
    /// When the source read released its chip (the program's ready time).
    read_done: Nanos,
}

/// The learned scheme's [`PageMigrator`]: map pages copy one-to-one (the
/// core's migrator), data pages are buffered — read and invalidated
/// immediately, so the episode machine's re-validation and
/// erase-before-flush stay sound — then sorted by LPN and programmed into
/// a single plane at `finish`. Consecutive programs of LPN-sorted pages in
/// one plane are physically adjacent, so relocation *recreates* runs for
/// the tracker instead of shredding the victims' old ones.
struct LearnedMigrator<'a> {
    core: CoreMigrator<'a>,
    model: &'a mut LearnedModel,
    stats: &'a mut LearnedStats,
    plane_cursor: &'a mut u64,
    buf: &'a mut Vec<BufferedPage>,
}

impl PageMigrator for LearnedMigrator<'_> {
    fn migrate(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        old: Ppn,
        info: &PageInfo,
        report: &mut GcReport,
    ) -> Result<Option<u64>> {
        if info.kind != PageKind::Data {
            // The core copies stamps along with the page; a translation
            // page has none, so that step does nothing here.
            debug_assert!(array.content_of(old).is_none(), "{old:?}: stamped map page");
            return self.core.migrate(array, alloc, now, old, info, report);
        }
        if array.page_state(old)? != PageState::Valid {
            // Superseded since capture (see [`PageMigrator`]).
            return Ok(None);
        }
        let page_bytes = array.geometry().page_bytes;
        let (read, stamps) = array.read_old_copy(old, page_bytes, now, now)?;
        if read.is_lost() {
            report.lost_pages += 1;
        }
        array.invalidate(old)?;
        self.buf.push(BufferedPage {
            lpn: info.tag,
            stamps,
            read_done: read.complete_ns(),
        });
        // Programs are counted when `finish` flushes the buffer.
        Ok(Some(0))
    }

    fn finish(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        _report: &mut GcReport,
    ) -> Result<u64> {
        if self.buf.is_empty() {
            return Ok(0);
        }
        self.buf.sort_unstable_by_key(|p| p.lpn);
        let plane = *self.plane_cursor % array.geometry().total_planes();
        *self.plane_cursor += 1;
        let page_bytes = array.geometry().page_bytes;
        let mut programmed = 0u64;
        for page in self.buf.drain(..) {
            let (new_ppn, _) = array.program_relocating(
                alloc,
                Some(plane),
                StreamId::Gc,
                PageKind::Data,
                page.lpn,
                page_bytes,
                now,
                page.read_done,
            )?;
            if let Some(stamps) = page.stamps {
                array.record_content(new_ppn, stamps);
            }
            self.core.copier.counters.dram_accesses += 1;
            let prev = self.core.pmt.set_ppn(page.lpn, new_ppn);
            // `prev` was invalidated in `migrate`; only the mapping moves.
            debug_assert!(prev.is_valid(), "GC migrated an unmapped data page");
            self.model.note_program(page.lpn, new_ppn, true, self.stats);
            programmed += 1;
        }
        #[cfg(debug_assertions)]
        self.model
            .check_index()
            .expect("membership index consistent with the segments and open runs");
        Ok(programmed)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::RefModel;
    use super::*;
    use aftl_flash::{Allocator, FlashArray, Geometry, TimingSpec};
    use proptest::prelude::*;

    fn model(cfg: LearnedConfig, runs: usize) -> (LearnedModel, LearnedStats) {
        (LearnedModel::new(cfg, runs), LearnedStats::default())
    }

    fn seg(start_lpn: u64, stride: u64, base_ppn: u64, len: u32) -> Segment {
        Segment {
            start_lpn,
            stride,
            base_ppn,
            len,
            ..Segment::default()
        }
    }

    impl SegmentStore {
        /// Install `seg` directly, as a run that opened holding all of its
        /// members and closed at once.
        fn install(&mut self, seg: Segment) {
            let id = self.place(seg, None);
            self.close(id);
        }
    }

    #[test]
    fn segment_predicts_members_only() {
        let (mut s, _) = model(LearnedConfig::default(), 4);
        s.store.install(seg(100, 4, 1000, 8));
        assert_eq!(s.predict(100), Some(Ppn(1000)));
        assert_eq!(s.predict(112), Some(Ppn(1003)));
        assert_eq!(s.predict(128), Some(Ppn(1007)));
        assert_eq!(s.predict(101), None, "off-stride LPN is not a member");
        assert_eq!(s.predict(132), None, "past the end");
        assert_eq!(s.predict(96), None, "before the start");
    }

    #[test]
    fn punch_removes_member_and_split_rebuilds() {
        let cfg = LearnedConfig {
            retrain_threshold: 2,
            ..LearnedConfig::default()
        };
        let (mut s, mut st) = model(cfg, 4);
        s.store.install(seg(0, 1, 500, 10));
        s.punch(3, &mut st);
        assert_eq!(s.predict(3), None, "punched member no longer predicted");
        assert_eq!(s.predict(4), Some(Ppn(504)), "neighbours still predicted");
        assert_eq!(st.segment_rebuilds, 0);
        // Second hole hits the threshold: split into [0..3) and [8..10).
        s.punch(7, &mut st);
        assert_eq!(st.segment_rebuilds, 1);
        assert_eq!(s.predict(1), Some(Ppn(501)));
        assert_eq!(s.predict(8), Some(Ppn(508)));
        assert_eq!(s.predict(9), Some(Ppn(509)));
        // Members between the holes: [4..7) survives as its own subrun.
        assert_eq!(s.predict(5), Some(Ppn(505)));
        assert_eq!(s.predict(3), None);
        assert_eq!(s.predict(7), None);
        s.check_index().unwrap();
    }

    #[test]
    fn capacity_eviction_keeps_store_bounded() {
        let cfg = LearnedConfig {
            max_segments: 4,
            ..LearnedConfig::default()
        };
        let (mut s, _) = model(cfg, 4);
        for i in 0..10u64 {
            s.store.install(seg(i * 100, 1, i * 1000, 2 + i as u32));
        }
        assert!(s.store.len() <= 4);
        s.check_index().unwrap();
    }

    #[test]
    fn tracker_builds_runs_from_adjacent_programs() {
        let (mut s, mut st) = model(LearnedConfig::default(), 4);
        // Stride-2 LPNs at consecutive PPNs: one open run.
        for i in 0..5u64 {
            s.note_program(10 + 2 * i, Ppn(700 + i), false, &mut st);
        }
        assert_eq!(s.predict(14), Some(Ppn(702)), "open runs predict");
        assert_eq!(s.store.len(), 0, "run still open");
        let [(id, _)] = s.tracker.open[..] else {
            panic!("one open run: {:?}", s.tracker.open);
        };
        assert_eq!(
            s.store.slab[id as usize],
            Segment {
                open: true,
                ..seg(10, 2, 700, 5)
            }
        );
        // A non-adjacent program (different block) closes nothing but the
        // evicted open run once capacity is hit; force a close by
        // breaking the progression at the adjacent PPN.
        s.note_program(9999, Ppn(705), false, &mut st);
        assert_eq!(s.store.len(), 1, "broken progression installs the run");
        assert_eq!(s.store.order, [id], "the run closed under its slab id");
        assert_eq!(s.tracker.open.len(), 1, "9999 opened a run of its own");
        assert_eq!(s.predict(18), Some(Ppn(704)));
        s.check_index().unwrap();
    }

    #[test]
    fn tracker_punch_closes_with_hole() {
        let (mut s, mut st) = model(LearnedConfig::default(), 4);
        for i in 0..6u64 {
            s.note_program(i, Ppn(100 + i), false, &mut st);
        }
        s.punch(2, &mut st);
        assert!(s.tracker.open.is_empty(), "punched run left the tracker");
        let want = Segment {
            holes: vec![2],
            ..seg(0, 1, 100, 6)
        };
        assert!(s.store.installed().eq([&want]), "installed with its hole");
        assert_eq!(s.predict(2), None, "hole not predicted");
        assert_eq!(s.predict(4), Some(Ppn(104)), "other members installed");
        s.check_index().unwrap();
    }

    #[test]
    fn closing_run_keeps_its_slab_id_and_index_entries() {
        let (mut s, mut st) = model(LearnedConfig::default(), 4);
        for i in 0..6u64 {
            s.note_program(3 * i, Ppn(40 + i), false, &mut st);
        }
        let [(id, _)] = s.tracker.open[..] else {
            panic!("one open run: {:?}", s.tracker.open);
        };
        let entries = s.store.index.entries.clone();
        // Break the progression at the run's next PPN: the run closes.
        s.note_program(1, Ppn(46), false, &mut st);
        assert_eq!(s.store.order, [id], "installed under the id it opened with");
        assert!(!s.store.slab[id as usize].open);
        for lpn in (0..18).step_by(3) {
            assert_eq!(s.store.index.entries[lpn], entries[lpn], "lpn {lpn}");
            assert_eq!(s.store.index.get(lpn as u64), Some(id));
        }
        s.check_index().unwrap();
    }

    /// The indexed model and the reference, fed the same calls; [`Twins::agree`]
    /// compares everything either can be asked.
    struct Twins {
        new: LearnedModel,
        new_stats: LearnedStats,
        old: RefModel,
        old_stats: LearnedStats,
    }

    impl Twins {
        fn new(cfg: LearnedConfig, runs: usize) -> Self {
            let (new, new_stats) = model(cfg, runs);
            Twins {
                new,
                new_stats,
                old: RefModel::new(cfg, runs),
                old_stats: LearnedStats::default(),
            }
        }

        fn install(&mut self, seg: Segment) {
            self.new.store.install(seg.clone());
            self.old.store.install(seg);
        }

        fn note_program(&mut self, lpn: u64, ppn: u64, from_gc: bool) {
            self.new
                .note_program(lpn, Ppn(ppn), from_gc, &mut self.new_stats);
            self.old
                .note_program(lpn, Ppn(ppn), from_gc, &mut self.old_stats);
        }

        fn punch(&mut self, lpn: u64) {
            self.new.punch(lpn, &mut self.new_stats);
            self.old.punch(lpn, &mut self.old_stats);
        }

        /// Equal predictions over `lpns`, equal counters, and the same
        /// segments in the same start order — which pins every install
        /// position and every eviction victim so far.
        fn agree(&self, lpns: impl Iterator<Item = u64>) -> std::result::Result<(), String> {
            self.new.check_index()?;
            for lpn in lpns {
                let (new, old) = (self.new.predict(lpn), self.old.predict(lpn));
                if new != old {
                    return Err(format!("lpn {lpn}: predicts {new:?}, reference {old:?}"));
                }
            }
            let (new, old) = (&self.new.store, &self.old.store);
            if !new.installed().eq(old.segs.iter()) {
                return Err(format!(
                    "segments differ:\n{:?}\nreference:\n{:?}",
                    new.installed().collect::<Vec<_>>(),
                    old.segs
                ));
            }
            let new = (
                new.len(),
                new.model_bytes(),
                new.gc_trained_count(),
                self.new_stats.segment_rebuilds,
            );
            let old = (
                old.segs.len(),
                old.segs.iter().map(|s| 16 + 4 * s.holes.len() as u64).sum(),
                old.segs.iter().filter(|s| s.from_gc).count(),
                self.old_stats.segment_rebuilds,
            );
            if new != old {
                return Err(format!(
                    "(len, model_bytes, gc_trained, rebuilds) {new:?}, reference {old:?}"
                ));
            }
            Ok(())
        }
    }

    /// The store shape that made the backward scan degenerate: a full store
    /// of plane-striped segments, four to a 16-LPN span, plus one 2-member
    /// run whose stride is the gap between two unrelated LPNs — enough to
    /// push the reference's span bound past the device, so every lookup of
    /// it walks to the front of the store.
    #[test]
    fn outlier_stride_does_not_change_any_prediction() {
        let segments = 4096;
        let cfg = LearnedConfig {
            max_segments: segments as u32 + 1,
            ..LearnedConfig::default()
        };
        let mut t = Twins::new(cfg, 4);
        for k in 0..segments {
            t.install(seg(k / 4 * 16 + k % 4, 4, 100_000 + 4 * k, 4));
        }
        let lpns = segments * 4;
        // LPN 3 leaves its striped segment for an outlier reaching far past
        // every other model; the third program breaks the progression and
        // closes it into the store.
        t.note_program(3, 900_000, false);
        t.note_program(25_003, 900_001, false);
        t.note_program(lpns + 7, 900_002, false);
        assert_eq!(t.new.store.len() as u64, segments + 1);

        assert_eq!(t.new.predict(3), Some(Ppn(900_000)));
        assert_eq!(t.new.predict(25_003), Some(Ppn(900_001)));
        assert_eq!(t.new.predict(lpns + 7), Some(Ppn(900_002)), "open run");
        assert_eq!(t.new.predict(7), Some(Ppn(100_000 + 4 * 3 + 1)));
        assert_eq!(
            t.new.predict(20_003),
            None,
            "inside the outlier's span, not a member"
        );
        t.agree((0..lpns + 8).chain([25_003])).unwrap();
    }

    /// One step of a program stream over a few planes. Each plane hands out
    /// consecutive PPNs and follows an LPN progression, so runs open, extend
    /// and break the way host streams and the GC repack make them.
    #[derive(Debug, Clone, Copy)]
    enum ModelOp {
        /// Program the plane's next `count` LPNs at its next PPNs: extends
        /// its run.
        Extend { plane: usize, count: u64 },
        /// Start the plane on a new progression: closes its run.
        Restart {
            plane: usize,
            start: u64,
            stride: u64,
        },
        /// Leave a physical gap: the plane's run stays open, unextendable,
        /// until the LRU or a punch closes it.
        Skip { plane: usize },
        /// An LPN went stale with no program behind it (a mis-predict).
        Punch { lpn: u64 },
        /// Two adjacent programs of far-apart LPNs: a 2-member run whose
        /// stride is their gap.
        Outlier { plane: usize, start: u64, gap: u64 },
    }

    /// A plane's write point and the LPN progression it is following.
    struct Plane {
        next_ppn: u64,
        next_lpn: u64,
        stride: u64,
    }

    impl Plane {
        /// Program `lpn` at the plane's next PPN; the progression continues
        /// from it. Odd planes stand in for the GC repack.
        fn program(&mut self, t: &mut Twins, plane: usize, lpn: u64) {
            t.note_program(lpn, self.next_ppn, plane % 2 == 1);
            self.next_ppn += 1;
            self.next_lpn = (lpn + self.stride) % LPN_RANGE;
        }
    }

    const PLANES: usize = 6;
    /// LPNs the strided progressions live in (outliers reach beyond).
    const LPN_RANGE: u64 = 256;

    fn model_op_strategy() -> impl Strategy<Value = ModelOp> {
        (
            0u8..=15,
            0..PLANES,
            0..LPN_RANGE,
            1u64..=8,
            10_000u64..=30_000,
        )
            .prop_map(|(kind, plane, start, stride, gap)| match kind {
                0..=7 => ModelOp::Extend {
                    plane,
                    count: 1 + start % 12,
                },
                8..=10 => ModelOp::Restart {
                    plane,
                    start,
                    stride,
                },
                11 => ModelOp::Skip { plane },
                12..=14 => ModelOp::Punch { lpn: start },
                _ => ModelOp::Outlier { plane, start, gap },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whatever the program stream, the indexed model and the scanning
        /// reference stay indistinguishable — with stores this small and
        /// thresholds this low, eviction and rebuild fire constantly.
        #[test]
        fn indexed_model_equals_scanning_reference(
            (knobs, ops) in (
                (8u32..=64, 2u32..=16, 1u32..=4, 1usize..=5),
                collection::vec(model_op_strategy(), 100..500),
            )
        ) {
            let (max_segments, retrain_threshold, min_run, runs) = knobs;
            let cfg = LearnedConfig {
                max_segments,
                retrain_threshold,
                min_run,
                ..LearnedConfig::default()
            };
            let mut t = Twins::new(cfg, runs);
            let mut planes: Vec<Plane> = (0..PLANES as u64)
                .map(|p| Plane { next_ppn: p << 32, next_lpn: p, stride: PLANES as u64 })
                .collect();
            let mut far_lpns: Vec<u64> = Vec::new();
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    ModelOp::Extend { plane, count } => {
                        for _ in 0..count {
                            let lpn = planes[plane].next_lpn;
                            planes[plane].program(&mut t, plane, lpn);
                        }
                    }
                    ModelOp::Restart { plane, start, stride } => {
                        planes[plane].stride = stride;
                        planes[plane].program(&mut t, plane, start);
                    }
                    ModelOp::Skip { plane } => planes[plane].next_ppn += 2,
                    ModelOp::Punch { lpn } => t.punch(lpn),
                    ModelOp::Outlier { plane, start, gap } => {
                        planes[plane].program(&mut t, plane, start);
                        planes[plane].program(&mut t, plane, start + gap);
                        far_lpns.push(start + gap);
                    }
                }
                if let Err(e) = t.agree((0..LPN_RANGE).chain(far_lpns.iter().copied())) {
                    return Err(TestCaseError::fail(format!("after step {step} ({op:?}): {e}")));
                }
            }
        }
    }

    fn setup() -> (FlashArray, Allocator, LearnedFtl) {
        let g = Geometry::tiny(); // spp = 8
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        array.enable_content_tracking();
        let alloc = Allocator::new(&array);
        let cfg = SchemeConfig {
            logical_pages: g.total_pages() * 9 / 10,
            cache_bytes: 1 << 20,
            gc_threshold: 0.10,
            gc_hysteresis: 0.0005,
            gc: Default::default(),
            pipeline: Default::default(),
            learned: Default::default(),
        };
        let ftl = LearnedFtl::new(&g, cfg);
        (array, alloc, ftl)
    }

    /// A device whose mapping cache actually misses: 512-byte pages put
    /// only 64 PMT entries on a translation page, so the logical span
    /// covers several tpages, and the one-tpage cache must evict. Under
    /// the CMT-first lookup order predictions only fire on would-be
    /// map-ins, so this is the setup that exercises them end to end.
    fn setup_pressured() -> (FlashArray, Allocator, LearnedFtl) {
        let g = Geometry {
            page_bytes: 512,
            ..Geometry::tiny()
        }; // spp = 1, 64 mapping entries per tpage
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        array.enable_content_tracking();
        let alloc = Allocator::new(&array);
        let cfg = SchemeConfig {
            logical_pages: g.total_pages() * 9 / 10,
            cache_bytes: u64::from(g.page_bytes), // one resident tpage
            gc_threshold: 0.10,
            gc_hysteresis: 0.0005,
            gc: Default::default(),
            pipeline: Default::default(),
            learned: Default::default(),
        };
        let ftl = LearnedFtl::new(&g, cfg);
        (array, alloc, ftl)
    }

    #[test]
    fn sequential_writes_then_reads_hit_predictions() {
        let (mut array, mut alloc, mut ftl) = setup_pressured();
        let mut env = FtlEnv {
            array: &mut array,
            alloc: &mut alloc,
            now_ns: 0,
        };
        // Three translation pages' worth of sequential fill: the one-tpage
        // cache evicts (and flushes) the first two, so reading them back
        // would charge map-ins — exactly where the model takes over.
        for lpn in 0..160u64 {
            let req = HostRequest {
                version: lpn + 1,
                ..HostRequest::write(lpn, lpn, 1)
            };
            ftl.write(&mut env, &req).unwrap();
        }
        for lpn in 0..160u64 {
            let out = ftl
                .read(&mut env, &HostRequest::read(1000 + lpn, lpn, 1))
                .unwrap();
            assert!(
                out.served.iter().all(|s| s.version == lpn + 1),
                "lpn {lpn} served wrong generation: {:?}",
                out.served
            );
        }
        let st = ftl.learned_stats();
        assert!(st.predict_hits > 0, "sequential fill must train the model");
        assert_eq!(st.mispredicts, 0, "exact models never mis-predict");
        assert_eq!(
            st.predict_hits, st.map_ins_saved,
            "under CMT-first every hit avoids a map-in"
        );
    }

    #[test]
    fn overwrites_punch_and_reads_stay_correct() {
        let (mut array, mut alloc, mut ftl) = setup();
        let mut env = FtlEnv {
            array: &mut array,
            alloc: &mut alloc,
            now_ns: 0,
        };
        for lpn in 0..16u64 {
            let req = HostRequest {
                version: 1,
                ..HostRequest::write(lpn, lpn * 8, 8)
            };
            ftl.write(&mut env, &req).unwrap();
        }
        // Overwrite the middle of the trained range.
        for lpn in 4..8u64 {
            let req = HostRequest {
                version: 2,
                ..HostRequest::write(100 + lpn, lpn * 8, 8)
            };
            ftl.write(&mut env, &req).unwrap();
        }
        for lpn in 0..16u64 {
            let want = if (4..8).contains(&lpn) { 2 } else { 1 };
            let out = ftl
                .read(&mut env, &HostRequest::read(200 + lpn, lpn * 8, 8))
                .unwrap();
            assert!(
                out.served.iter().all(|s| s.version == want),
                "lpn {lpn}: {:?}, want v{want}",
                out.served
            );
        }
        assert_eq!(ftl.learned_stats().mispredicts, 0);
    }

    #[test]
    fn gc_churn_repacks_and_reads_survive() {
        let (mut array, mut alloc, mut ftl) = setup();
        // Churn a working set past capacity so GC runs repeatedly.
        for round in 0..800u64 {
            let lpn = round % 20;
            let mut env = FtlEnv {
                array: &mut array,
                alloc: &mut alloc,
                now_ns: 0,
            };
            let req = HostRequest {
                version: round + 1,
                ..HostRequest::write(round, lpn * 8, 8)
            };
            ftl.write(&mut env, &req).unwrap();
            ftl.maybe_gc(&mut env).unwrap();
        }
        assert!(array.stats().erases > 0, "churn must trigger GC");
        for lpn in 0..20u64 {
            let mut env = FtlEnv {
                array: &mut array,
                alloc: &mut alloc,
                now_ns: 0,
            };
            let out = ftl
                .read(&mut env, &HostRequest::read(9000 + lpn, lpn * 8, 8))
                .unwrap();
            let expect = 800 - 20 + lpn + 1;
            assert!(
                out.served.iter().all(|s| s.version == expect),
                "lpn {lpn}: got {:?}, want {expect}",
                out.served.iter().map(|s| s.version).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn cold_data_under_gc_gains_gc_segments() {
        let (mut array, mut alloc, mut ftl) = setup();
        let mut version = 0u64;
        let mut expected = vec![0u64; 420];
        let mut step = |ftl: &mut LearnedFtl,
                        array: &mut FlashArray,
                        alloc: &mut Allocator,
                        expected: &mut Vec<u64>,
                        lpn: u64| {
            version += 1;
            expected[lpn as usize] = version;
            let mut env = FtlEnv {
                array,
                alloc,
                now_ns: 0,
            };
            let req = HostRequest {
                version,
                ..HostRequest::write(0, lpn * 8, 8)
            };
            ftl.write(&mut env, &req).unwrap();
            ftl.maybe_gc(&mut env).unwrap();
        };
        // Sequential fill: every block ends up fully valid, so GC can
        // never find an easy (fully-stale) victim later.
        for lpn in 0..300u64 {
            step(&mut ftl, &mut array, &mut alloc, &mut expected, lpn);
        }
        // Sparse overwrite passes, stride 5 (coprime to the 4-plane
        // stripe): each pass scatters 1–2 invalid pages into every block.
        // Once free space runs out, every GC victim carries 6–7 still-
        // valid pages the sorted repack must relocate.
        for pass in 0..4u64 {
            for i in 0..60u64 {
                let lpn = i * 5 + pass;
                step(&mut ftl, &mut array, &mut alloc, &mut expected, lpn);
            }
        }
        // Fresh tail fill keeps the pressure on through the last passes.
        for lpn in 300..420u64 {
            step(&mut ftl, &mut array, &mut alloc, &mut expected, lpn);
        }
        assert!(array.stats().erases > 0, "fill + overwrites must run GC");
        assert!(
            ftl.gc_segments() > 0,
            "the sorted repack must have installed GC-born segments \
             ({} total segments)",
            ftl.segments()
        );
        // Every LPN reads back its newest generation. (The 1 MB cache
        // holds the whole PMT here, so under CMT-first no read charges a
        // map-in and none consults the model — the model's health is
        // checked directly below instead.)
        for lpn in 0..420u64 {
            let mut env = FtlEnv {
                array: &mut array,
                alloc: &mut alloc,
                now_ns: 0,
            };
            let out = ftl
                .read(&mut env, &HostRequest::read(0, lpn * 8, 8))
                .unwrap();
            assert!(
                out.served
                    .iter()
                    .all(|s| s.version == expected[lpn as usize]),
                "lpn {lpn}: got {:?}, want {}",
                out.served.iter().map(|s| s.version).collect::<Vec<_>>(),
                expected[lpn as usize]
            );
        }
        // Relocated cold data must stay predictable: the model still
        // covers live LPNs, and every prediction it makes agrees with the
        // PMT (the punch-on-program invariant — a wrong prediction would
        // cost a wasted verify read in a pressured cache).
        let predicted: Vec<u64> = (0..420u64)
            .filter(|&l| ftl.model.predict(l).is_some())
            .collect();
        assert!(
            !predicted.is_empty(),
            "relocated cold data must stay predictable"
        );
        for &lpn in &predicted {
            assert_eq!(
                ftl.model.predict(lpn),
                Some(ftl.core.pmt.get(lpn).ppn),
                "lpn {lpn}: model disagrees with the PMT"
            );
        }
    }
}
