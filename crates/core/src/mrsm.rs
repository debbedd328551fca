//! MRSM — the multiregional space-management comparator (Chen et al.,
//! TCAD 2020), as characterised by the paper:
//!
//! * **sub-page mapping**: each logical page is divided into four
//!   sub-regions that can be mapped independently, so partial updates
//!   overwrite just their sub-regions — no page-level read-modify-write,
//! * sub-regions written by one request are **packed** into shared region
//!   pages (up to four per flash page), so an across-page request usually
//!   still costs a single program,
//! * the price is a **large, tree-structured mapping table** (~2.4× the
//!   baseline), which thrashes the DRAM mapping cache (the paper reports
//!   42.1 % residency, 36.9 % of flash writes and 34.4 % of reads being
//!   map traffic, and ~32× the DRAM accesses of the baseline).

use std::collections::HashMap;

use aftl_flash::{
    Allocator, FlashArray, Nanos, OobDesc, PageInfo, PageKind, PageStamps, PageState, Ppn, Result,
    SectorStamp, StreamId,
};

use crate::gc::{GcReport, PageMigrator};
use crate::pagemap::{scheme_core_methods, serve_page, PageCopier, SchemeCore};
use crate::recovery::SchemeImage;
use crate::request::{HostRequest, PageExtent, ReqKind};
use crate::scheme::{
    carry_range, extent_stamps, served_unwritten, stamp_range, FtlEnv, FtlScheme, PrefetchStage,
    SchemeConfig, SchemeKind, ServiceOutcome,
};

/// Sub-regions per page (MRSM's default granularity).
pub const SUBS_PER_PAGE: u32 = 4;
/// Modelled average bytes per mapping entry: the page/sub-mapped mix the
/// paper describes averages ~2.4× the baseline's 4 B.
pub const ENTRY_BYTES: u64 = 10;
/// LPNs covered by one tree leaf. MRSM's mapping is a tree whose leaves are
/// allocated on demand, so — unlike a flat page table — consecutive LPN
/// ranges do *not* share translation pages; the DRAM cache therefore sees
/// scattered, leaf-granular traffic (this is what produces the paper's
/// 36.9 %/34.4 % map shares of flash writes/reads and the ~32× DRAM access
/// count).
pub const LEAF_LPNS: u64 = 32;

/// Location of one sub-region: a flash page and a slot within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SubLoc {
    ppn: Ppn,
    slot: u8,
}

impl SubLoc {
    const NONE: SubLoc = SubLoc {
        ppn: Ppn::INVALID,
        slot: 0,
    };

    #[inline]
    fn is_some(self) -> bool {
        self.ppn.is_valid()
    }
}

/// Per-LPN mapping node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LpnMap {
    /// All sub-regions live together on one data page.
    Page(Ppn),
    /// Sub-regions are mapped independently.
    Sub([SubLoc; SUBS_PER_PAGE as usize]),
}

/// Translation-page id of the tree leaf holding `lpn`'s entry: the leaf
/// index. The mapping cache is keyed exactly, so leaf ids need no
/// scattering, and they fit the flash array's 32-bit page tag.
#[inline]
pub(crate) fn leaf_tpid(lpn: u64) -> u64 {
    lpn / LEAF_LPNS
}

/// A sub-region write staged during request processing.
#[derive(Clone)]
struct SubWrite {
    lpn: u64,
    sub: u32,
    /// Absolute written range within the sub-region.
    ws: u64,
    we: u64,
    /// When this sub-write's mapping resolution completed. The pipelined
    /// data stage issues against it instead of the request-wide maximum.
    ready: Nanos,
    /// Old location captured at staging time, so the partial check, the
    /// old-copy read, the pack and the eviction do not each probe the
    /// table again. Distinct `(lpn, sub)` pairs within one request never
    /// alias, and a page→sub node conversion keeps untouched subs at their
    /// old `(ppn, slot)`, so the staged location stays valid until this
    /// sub-write's own pack group evicts it.
    loc: Option<SubLoc>,
}

/// One (page, in-page range) gather piece of a read.
#[derive(Debug, Clone, Copy)]
struct Piece {
    ppn: Ppn,
    page_offset: u32,
    sector: u64,
    len: u32,
    /// When this piece's mapping resolution completed (see [`SubWrite`]).
    ready: Nanos,
}

/// Pages — logical or physical — a packed table word can number: 30 bits
/// of page above a 2-bit slot or sub-region index, less the all-ones word,
/// which is [`NO_LOC`]. 8 TiB of 8 KiB pages; [`MrsmFtl::new`] checks the
/// device against it once, so the tables only debug-assert.
const MAX_PAGES: u64 = (1 << 30) - 1;

/// The packed word of a sub-region that has no location.
const NO_LOC: u32 = u32::MAX;

/// `page << 2 | idx`: a flash page and a slot in it, or a logical page and
/// one of its sub-regions.
#[inline]
fn pack(page: u64, idx: u32) -> u32 {
    debug_assert!(page < MAX_PAGES && idx < SUBS_PER_PAGE);
    (page as u32) << 2 | idx
}

#[inline]
fn unpack(word: u32) -> (u64, u32) {
    (u64::from(word >> 2), word & 3)
}

impl SubLoc {
    #[inline]
    fn packed(self) -> u32 {
        if self.is_some() {
            pack(self.ppn.0, u32::from(self.slot))
        } else {
            NO_LOC
        }
    }

    #[inline]
    fn from_packed(word: u32) -> Option<SubLoc> {
        (word != NO_LOC).then(|| {
            let (ppn, slot) = unpack(word);
            SubLoc {
                ppn: Ppn(ppn),
                slot: slot as u8,
            }
        })
    }
}

/// Tag of a sub-mapped [`LpnTable`] word, whose low bits are its slab slot.
/// Pages stay under 2³⁰; [`NO_LOC`], which carries it too, names no slot.
const SUB_TAG: u32 = 1 << 31;

mod slab {
    /// A `Vec` of records whose freed slots are reused, last freed first: the
    /// sub-page detail behind MRSM's per-page words, sized by what is live.
    #[derive(Debug, Clone, Default)]
    pub(super) struct Slab<T> {
        items: Vec<T>,
        free: Vec<u32>,
    }

    impl<T: Copy> Slab<T> {
        /// Store `item` in the last freed slot, or a new one; returns the slot.
        pub(super) fn insert(&mut self, item: T) -> u32 {
            let Some(i) = self.free.pop() else {
                self.items.push(item);
                return (self.items.len() - 1) as u32;
            };
            self.items[i as usize] = item;
            i
        }

        /// Free slot `i`, returning what it held.
        pub(super) fn remove(&mut self, i: usize) -> T {
            self.free.push(i as u32);
            self.items[i]
        }

        /// The record in slot `i`.
        pub(super) fn get(&self, i: usize) -> &T {
            &self.items[i]
        }

        pub(super) fn get_mut(&mut self, i: usize) -> &mut T {
            &mut self.items[i]
        }

        /// Heap bytes reserved, freed slots included.
        #[cfg(test)]
        pub(super) fn heap_bytes(&self) -> usize {
            std::mem::size_of::<T>() * self.items.capacity() + 4 * self.free.capacity()
        }
    }
}
use slab::Slab;

/// LPN → mapping node: one `u32` word per LPN, grown to the highest LPN
/// written inside room reserved for the logical span. A page-mapped word is
/// its page, so a lookup is one load; a sub-mapped word is `SUB_TAG | slot`,
/// the slab slot holding its four packed sub-region locations ([`NO_LOC`] =
/// never written); an absent LPN's is [`NO_LOC`]. MRSM never unmaps an LPN
/// (nodes only convert between page- and sub-mapped forms), so `len()`, the
/// mapped-LPN count driving [`MrsmFtl::tree_depth`], only rises.
#[derive(Debug, Clone, Default)]
struct LpnTable {
    words: Vec<u32>,
    subs: Slab<[u32; SUBS_PER_PAGE as usize]>,
    mapped: usize,
}

impl LpnTable {
    /// Mapped LPNs.
    #[inline]
    fn len(&self) -> usize {
        self.mapped
    }

    /// `lpn`'s word, and its slab slot if it is sub-mapped.
    #[inline]
    fn word(&self, lpn: u64) -> (u32, Option<usize>) {
        let word = self.words.get(lpn as usize).copied().unwrap_or(NO_LOC);
        let slot = (word & SUB_TAG != 0 && word != NO_LOC).then_some(word & !SUB_TAG);
        (word, slot.map(|i| i as usize))
    }

    /// Current location of a sub-region: `(p, sub)` on a page-mapped `p`.
    #[inline]
    fn loc(&self, lpn: u64, sub: u32) -> Option<SubLoc> {
        match self.word(lpn) {
            (_, Some(i)) => SubLoc::from_packed(self.subs.get(i)[sub as usize]),
            (NO_LOC, None) => None,
            (page, None) => Some(SubLoc {
                ppn: Ppn(page.into()),
                slot: sub as u8,
            }),
        }
    }

    /// The flash page `lpn` is page-mapped on, if it is.
    #[inline]
    fn page_of(&self, lpn: u64) -> Option<Ppn> {
        let word = self.word(lpn).0;
        (word & SUB_TAG == 0).then(|| Ppn(word.into()))
    }

    /// `lpn`'s node, decoded.
    fn get(&self, lpn: u64) -> Option<LpnMap> {
        let (_, Some(i)) = self.word(lpn) else {
            return self.page_of(lpn).map(LpnMap::Page);
        };
        let words = self.subs.get(i);
        Some(LpnMap::Sub(
            words.map(|w| SubLoc::from_packed(w).unwrap_or(SubLoc::NONE)),
        ))
    }

    /// `lpn`'s word, grown into and counted as mapped; the caller sets it.
    #[inline]
    fn word_mut(&mut self, lpn: u64) -> &mut u32 {
        let i = lpn as usize;
        if i >= self.words.len() {
            self.words.resize(i + 1, NO_LOC);
        }
        self.mapped += usize::from(self.words[i] == NO_LOC);
        &mut self.words[i]
    }

    /// `lpn`'s sub-region words, in a slot taken if it was not sub-mapped:
    /// a page-mapped node's sub-regions stay where they were.
    #[inline]
    fn subs_mut(&mut self, lpn: u64) -> &mut [u32; SUBS_PER_PAGE as usize] {
        let (word, slot) = self.word(lpn);
        let i = slot.unwrap_or_else(|| {
            let i = self.subs.insert(match word {
                NO_LOC => [NO_LOC; SUBS_PER_PAGE as usize],
                page => std::array::from_fn(|s| pack(page.into(), s as u32)),
            });
            *self.word_mut(lpn) = SUB_TAG | i;
            i as usize
        });
        self.subs.get_mut(i)
    }

    /// Insert or overwrite `lpn`'s node.
    fn set(&mut self, lpn: u64, node: LpnMap) {
        match node {
            LpnMap::Page(p) => {
                debug_assert!(p.0 < MAX_PAGES);
                if let (_, Some(i)) = self.word(lpn) {
                    self.subs.remove(i);
                }
                *self.word_mut(lpn) = p.0 as u32;
            }
            LpnMap::Sub(locs) => *self.subs_mut(lpn) = locs.map(SubLoc::packed),
        }
    }

    /// Point `lpn/sub` at `loc`; the node becomes (or stays) sub-mapped,
    /// its other sub-regions where they were.
    #[inline]
    fn set_sub(&mut self, lpn: u64, sub: u32, loc: SubLoc) {
        self.subs_mut(lpn)[sub as usize] = loc.packed();
    }

    /// All `(lpn, node)` pairs in LPN order. Used by the invariant checks
    /// and by crash-checkpoint capture.
    fn iter(&self) -> impl Iterator<Item = (u64, LpnMap)> + '_ {
        (0..self.words.len() as u64).filter_map(|lpn| self.get(lpn).map(|n| (lpn, n)))
    }
}

/// Live sub-regions resident on one flash page, as packed
/// `lpn << 2 | sub` words — at most one per slot. A page-mapped LPN's page
/// stores none: it holds exactly that LPN's four sub-regions, its program
/// tag names the LPN, and the set is written out only when a partial
/// write splits the page ([`MrsmFtl::evict_sub_at`]). Entry order is the
/// order of pushes, with the last entry moved into the place of one
/// removed: GC repack slot assignment depends on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ResidentSet {
    items: [u32; SUBS_PER_PAGE as usize],
    len: u8,
}

impl ResidentSet {
    /// The set of a page-mapped `lpn`'s page: `(lpn, 0) … (lpn, 3)`.
    fn of_page(lpn: u64) -> Self {
        ResidentSet {
            items: std::array::from_fn(|s| pack(lpn, s as u32)),
            len: SUBS_PER_PAGE as u8,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    /// The `(lpn, sub)` entries, in entry order.
    #[inline]
    fn entries(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.items[..self.len()].iter().map(|&w| unpack(w))
    }

    #[inline]
    fn push(&mut self, lpn: u64, sub: u32) {
        self.items[self.len()] = pack(lpn, sub);
        self.len += 1;
    }

    #[inline]
    fn position(&self, lpn: u64, sub: u32) -> Option<usize> {
        let word = pack(lpn, sub);
        self.items[..self.len()].iter().position(|&w| w == word)
    }

    /// Drop the entry at `pos`, moving the last entry into its place.
    #[inline]
    fn swap_remove(&mut self, pos: usize) {
        self.len -= 1;
        self.items[pos] = self.items[self.len()];
    }
}

/// Reverse map `Ppn` → [`ResidentSet`]: one `u32` slab slot per PPN
/// ([`NO_LOC`] = no set), grown to the highest PPN holding a set, in front
/// of a slab of the live sets; a set that empties frees its slot.
#[derive(Debug, Clone, Default)]
struct ResidentTable {
    slots: Vec<u32>,
    sets: Slab<ResidentSet>,
}

impl ResidentTable {
    /// A table with room reserved for every page of the device: page-mapped
    /// pages store no set, so the slot words first grow mid-replay, where a
    /// reallocation would put a copy of them on top of the run's peak.
    fn for_device(total_pages: u64) -> Self {
        ResidentTable {
            slots: Vec::with_capacity(total_pages as usize),
            sets: Slab::default(),
        }
    }

    #[inline]
    fn slot(&self, ppn: Ppn) -> Option<usize> {
        let slot = *self.slots.get(ppn.0 as usize)?;
        (slot != NO_LOC).then_some(slot as usize)
    }

    #[inline]
    fn get(&self, ppn: Ppn) -> Option<&ResidentSet> {
        self.slot(ppn).map(|i| self.sets.get(i))
    }

    /// Install a whole set under `ppn`, which has none yet; returns its slot.
    #[inline]
    fn insert_set(&mut self, ppn: Ppn, set: ResidentSet) -> usize {
        debug_assert!(ppn.0 < MAX_PAGES && self.slot(ppn).is_none());
        let i = ppn.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, NO_LOC);
        }
        self.slots[i] = self.sets.insert(set);
        self.slots[i] as usize
    }

    /// Append `(lpn, sub)` to `ppn`'s set, creating the set if absent.
    #[inline]
    fn push(&mut self, ppn: Ppn, lpn: u64, sub: u32) {
        let i = self
            .slot(ppn)
            .unwrap_or_else(|| self.insert_set(ppn, ResidentSet::default()));
        self.sets.get_mut(i).push(lpn, sub);
    }

    /// Drop one `(lpn, sub)` entry (swap-remove). Returns whether the set
    /// emptied (and so is gone); `None` if there is no such entry.
    #[inline]
    fn swap_remove_entry(&mut self, ppn: Ppn, lpn: u64, sub: u32) -> Option<bool> {
        let i = self.slot(ppn)?;
        let set = self.sets.get_mut(i);
        let pos = set.position(lpn, sub)?;
        set.swap_remove(pos);
        Some(set.len == 0 && self.remove(ppn).is_some())
    }

    /// Remove and return the whole set for `ppn`, freeing its slot.
    fn remove(&mut self, ppn: Ppn) -> Option<ResidentSet> {
        let i = self.slot(ppn)?;
        self.slots[ppn.0 as usize] = NO_LOC;
        Some(self.sets.remove(i))
    }

    /// All live sets in PPN order (invariant checks).
    #[cfg(any(test, debug_assertions))]
    fn iter(&self) -> impl Iterator<Item = (Ppn, &ResidentSet)> {
        let live = self.slots.iter().zip(0u64..).filter(|(&i, _)| i != NO_LOC);
        live.map(|(&i, ppn)| (Ppn(ppn), self.sets.get(i as usize)))
    }
}

/// The MRSM scheme.
#[derive(Clone)]
pub struct MrsmFtl {
    core: SchemeCore,
    map: LpnTable,
    /// Live sub-regions resident on each flash page (reverse map used for
    /// slot-wise invalidation and GC remapping).
    residents: ResidentTable,
    // Reusable per-request scratch (capacity persists across requests so
    // the hot path stays allocation-free).
    scratch_pending: Vec<SubWrite>,
    scratch_old_reads: Vec<(Ppn, Nanos)>,
    scratch_pieces: Vec<Piece>,
    /// The repack buffer, lent to each [`MrsmMigrator`] and kept between
    /// collections so steady-state GC allocates nothing.
    gc_pending: Vec<PendingSub>,
}

impl MrsmFtl {
    /// Construct an MRSM FTL for the given device geometry.
    pub fn new(geometry: &aftl_flash::Geometry, cfg: SchemeConfig) -> Self {
        assert!(
            geometry.total_pages() <= MAX_PAGES && cfg.logical_pages <= MAX_PAGES,
            "MRSM packs page numbers into 30 bits: {} physical / {} logical pages is too many",
            geometry.total_pages(),
            cfg.logical_pages
        );
        MrsmFtl {
            core: SchemeCore::new(geometry, cfg, ENTRY_BYTES),
            map: LpnTable {
                words: Vec::with_capacity(cfg.logical_pages as usize),
                ..LpnTable::default()
            },
            residents: ResidentTable::for_device(geometry.total_pages()),
            scratch_pending: Vec::new(),
            scratch_old_reads: Vec::new(),
            scratch_pieces: Vec::new(),
            gc_pending: Vec::new(),
        }
    }

    /// Construct an MRSM FTL preloaded with a recovered mapping (see
    /// [`crate::recovery`]): whole pages and sub-mapped LPNs, no areas.
    /// Page-mapped nodes store no resident set, as `MrsmFtl::page_write`
    /// leaves them; sub-mapped nodes register each present sub with its
    /// resident page. The map cache starts cold.
    pub fn from_image(
        geometry: &aftl_flash::Geometry,
        cfg: SchemeConfig,
        image: &SchemeImage,
    ) -> Self {
        let mut ftl = Self::new(geometry, cfg);
        image.assert_holds(SchemeKind::Mrsm, true, false);
        for &(lpn, ppn) in &image.pages {
            ftl.core.assert_on_device(geometry, lpn, ppn);
            ftl.map.set(lpn, LpnMap::Page(ppn));
        }
        for &(lpn, slots) in &image.subs {
            let mut locs = [SubLoc::NONE; SUBS_PER_PAGE as usize];
            for (sub, loc) in slots.iter().enumerate() {
                if let Some((ppn, slot)) = *loc {
                    ftl.core.assert_on_device(geometry, lpn, ppn);
                    locs[sub] = SubLoc { ppn, slot };
                    ftl.residents.push(ppn, lpn, sub as u32);
                }
            }
            ftl.map.set(lpn, LpnMap::Sub(locs));
        }
        ftl
    }

    /// Shared GC driver for the foreground (`idle_budget` = `None`) and
    /// idle (`Some(max_pages)`) paths.
    ///
    /// MRSM's mapping information lets GC *repack* sparse region pages:
    /// live sub-regions from several victims are gathered into full pages
    /// instead of being copied sparse (the MRSM paper's "address mapping
    /// information facilitates GC efficiency"). Without this, sub-page
    /// fragmentation would permanently inflate the valid-data footprint and
    /// the device would fill with mostly-dead pages. The migrator's repack
    /// buffer is flushed at every slice boundary (`PageMigrator::finish`),
    /// so a preempted episode never strands sub-regions in DRAM.
    fn run_gc(&mut self, env: &mut FtlEnv<'_>, idle_budget: Option<u64>) -> Result<GcReport> {
        let spp = env.geometry().sectors_per_page();
        // A slice that failed before its `finish` left its sub-regions
        // behind; the next collection starts, as a new migrator always
        // has, empty.
        self.gc_pending.clear();
        let (gc, copier) = self.core.gc_parts();
        let mut migrator = MrsmMigrator {
            copier,
            map: &mut self.map,
            residents: &mut self.residents,
            pending: &mut self.gc_pending,
            spp,
        };
        gc.collect(env.array, env.alloc, env.now_ns, idle_budget, &mut migrator)
    }

    /// One stage of request-ahead prefetch for `lpn`
    /// ([`crate::Scheme::prefetch`]): its table word, or the flash metadata
    /// and [`ResidentTable`] slot of every page the word maps — its page,
    /// or its sub-regions' pages. Nothing past the words grown.
    #[inline]
    pub(crate) fn prefetch(&self, array: &FlashArray, lpn: u64, stage: PrefetchStage) {
        let Some(word) = self.map.words.get(lpn as usize) else {
            return;
        };
        if stage == PrefetchStage::Far {
            return aftl_flash::prefetch(word);
        }
        let page = |ppn: Ppn| {
            array.prefetch_page(ppn);
            if let Some(slot) = self.residents.slots.get(ppn.0 as usize) {
                aftl_flash::prefetch(slot);
            }
        };
        match self.map.word(lpn) {
            (_, Some(i)) => (self.map.subs.get(i).iter())
                .filter_map(|&w| SubLoc::from_packed(w))
                .for_each(|loc| page(loc.ppn)),
            (NO_LOC, None) => {}
            (word, None) => page(Ppn(word.into())),
        }
    }

    /// Tree-lookup cost in DRAM accesses: one probe per level.
    fn tree_depth(&self) -> u64 {
        let n = self.map.len().max(2) as u64;
        64 - n.leading_zeros() as u64
    }

    #[inline]
    fn map_access(&mut self, env: &mut FtlEnv<'_>, lpn: u64, dirty: bool) -> Result<Nanos> {
        // Table-size accounting is entry-based (Figure 12(a))...
        self.core.touch(lpn);
        // ...but cache traffic is leaf-granular: one translation page per
        // leaf.
        let tpid = leaf_tpid(lpn);
        let depth = self.tree_depth();
        self.core.resolve(env, tpid, depth, dirty)
    }

    /// Remove a sub-region from the residents of the page it is at (`loc`,
    /// staged at [`SubWrite`] creation on the pack path), invalidating the
    /// page when its last live sub-region leaves.
    fn evict_sub_at(
        &mut self,
        env: &mut FtlEnv<'_>,
        lpn: u64,
        sub: u32,
        loc: Option<SubLoc>,
    ) -> Result<()> {
        let Some(loc) = loc else {
            return Ok(());
        };
        match self.residents.swap_remove_entry(loc.ppn, lpn, sub) {
            Some(true) => env.array.invalidate(loc.ppn)?,
            Some(false) => {}
            None => {
                // A page-mapped page stores no set ([`ResidentSet`]). This
                // eviction splits the page, so write out the three
                // surviving entries — in the permutation a swap-remove
                // from the full set leaves: canonical `(lpn, 0..4)` with
                // the last entry moved into the evicted slot.
                debug_assert!(
                    self.map.page_of(lpn) == Some(loc.ppn),
                    "missing resident record for sub-mapped ({lpn},{sub})"
                );
                let mut set = ResidentSet::of_page(lpn);
                set.swap_remove(sub as usize);
                self.residents.insert_set(loc.ppn, set);
            }
        }
        Ok(())
    }

    /// Full-page write: back to page-mapped form.
    fn page_write(
        &mut self,
        env: &mut FtlEnv<'_>,
        extent: &PageExtent,
        version: u64,
        ready: Nanos,
    ) -> Result<Nanos> {
        let (lpn, spp) = (extent.lpn, env.spp());
        // Evict all old sub-region locations. A `Page` node owns all four
        // resident slots of its page and stores no set ([`ResidentSet`]),
        // so retiring it is the one invalidate the last of four evictions
        // would issue.
        match self.map.page_of(lpn) {
            Some(p) => {
                debug_assert!(self.residents.get(p).is_none());
                env.array.invalidate(p)?;
            }
            None => {
                for sub in 0..SUBS_PER_PAGE {
                    let loc = self.map.loc(lpn, sub);
                    self.evict_sub_at(env, lpn, sub, loc)?;
                }
            }
        }
        // A full page depends on its own extent's resolution only, in
        // both engine modes.
        let ready = self.core.engine.issue_at(ready, ready);
        let (new_ppn, w) = env.array.program_relocating(
            env.alloc,
            None,
            StreamId::Data,
            PageKind::Data,
            lpn,
            env.page_bytes(),
            env.now_ns,
            ready,
        )?;
        if env.array.tracks_content() {
            let stamps = extent_stamps(spp, extent, version, None);
            env.array.record_content(new_ppn, stamps);
        }
        self.map.set(lpn, LpnMap::Page(new_ppn));
        Ok(w.complete_ns)
    }

    /// [`check_tables`] on this FTL's tables.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        check_tables(&self.map, &self.residents);
    }
}

/// `residents` must be exactly the reverse of `map`, checked in both
/// directions: every resident entry is where the map says that sub-region
/// is (so none is duplicated or dangling), and every mapped sub-region has
/// its resident entry — except on page-mapped pages, which must have *no*
/// set (GC reconstructs it from the program tag). O(device), so it runs
/// per GC slice and from tests, not per request, and not in release builds.
#[cfg(any(test, debug_assertions))]
fn check_tables(map: &LpnTable, residents: &ResidentTable) {
    for (ppn, set) in residents.iter() {
        for (i, (lpn, sub)) in set.entries().enumerate() {
            assert!(
                set.entries().skip(i + 1).all(|e| e != (lpn, sub)),
                "duplicate resident ({lpn},{sub}) on {ppn:?}"
            );
            let loc = map
                .loc(lpn, sub)
                .unwrap_or_else(|| panic!("resident ({lpn},{sub}) on {ppn:?} has no mapping"));
            assert_eq!(loc.ppn, ppn, "resident ({lpn},{sub}) maps elsewhere");
        }
    }
    for (lpn, node) in map.iter() {
        if let LpnMap::Page(p) = node {
            assert!(
                residents.get(p).is_none(),
                "page-mapped ({lpn}) → {p:?} has an explicit resident set"
            );
            continue;
        }
        for sub in 0..SUBS_PER_PAGE {
            if let Some(loc) = map.loc(lpn, sub) {
                assert!(
                    residents
                        .get(loc.ppn)
                        .is_some_and(|set| set.position(lpn, sub).is_some()),
                    "mapping ({lpn},{sub}) → {:?} lacks a resident entry",
                    loc.ppn
                );
            }
        }
    }
}

impl FtlScheme for MrsmFtl {
    fn write(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Write);
        self.core.counters.host_writes += 1;
        self.core.engine.begin_batch(env.now_ns);
        let spp = env.spp();
        let sub_sectors = u64::from(spp / SUBS_PER_PAGE);
        let mut outcome = ServiceOutcome::default();
        let mut ready = env.now_ns;
        let mut pending = std::mem::take(&mut self.scratch_pending);
        pending.clear();

        for extent in req.extents(spp) {
            let t = self.map_access(env, extent.lpn, true)?;
            ready = ready.max(t);
            if extent.is_full_page(spp) {
                let w = self.page_write(env, &extent, req.version, t)?;
                outcome.merge_time(w);
                continue;
            }
            // Stage the touched sub-regions, each with its old location.
            let es = extent.start_sector(spp);
            let ee = extent.end_sector(spp);
            let page_start = extent.lpn * u64::from(spp);
            let first_sub = (es - page_start) / sub_sectors;
            let last_sub = (ee - 1 - page_start) / sub_sectors;
            for sub in first_sub..=last_sub {
                let sub_start = page_start + sub * sub_sectors;
                let sub_end = sub_start + sub_sectors;
                pending.push(SubWrite {
                    lpn: extent.lpn,
                    sub: sub as u32,
                    ws: es.max(sub_start),
                    we: ee.min(sub_end),
                    ready: t,
                    loc: self.map.loc(extent.lpn, sub as u32),
                });
            }
        }

        if pending.is_empty() {
            self.scratch_pending = pending;
            outcome.merge_time(ready);
            return Ok(outcome);
        }

        // Read the old copies of partially covered sub-regions (sub-page
        // overwrite needs no page RMW, but a *sub-region* only partially
        // covered must be completed from its old location). The distinct
        // page set is tiny (≤ staged sub-writes), so a linear scan beats a
        // hash map here.
        let track = env.array.tracks_content();
        let mut old_reads = std::mem::take(&mut self.scratch_old_reads);
        old_reads.clear();
        let mut old_stamps: HashMap<Ppn, PageStamps> = HashMap::new();
        for sw in &pending {
            let sub_start = sw.lpn * u64::from(spp) + u64::from(sw.sub) * sub_sectors;
            let partial = sw.ws > sub_start || sw.we < sub_start + sub_sectors;
            if !partial {
                continue;
            }
            if let Some(loc) = sw.loc {
                if old_reads.iter().any(|&(p, _)| p == loc.ppn) {
                    continue;
                }
                // The old-copy read depends only on the mapping resolution
                // of the sub-write that needs it, not on the request's
                // slowest resolution.
                let at = self.core.engine.issue_at(sw.ready, ready);
                let bytes = env.sectors_to_bytes(spp / SUBS_PER_PAGE);
                let (read, stamps) = env.array.read_old_copy(loc.ppn, bytes, env.now_ns, at)?;
                self.core.counters.rmw_reads += 1;
                if read.is_lost() {
                    self.core.counters.lost_pages += 1;
                }
                if let Some(stamps) = stamps {
                    old_stamps.insert(loc.ppn, stamps);
                }
                old_reads.push((loc.ppn, read.complete_ns()));
            }
        }

        // Pack staged sub-regions into region pages, up to four per page.
        for group in pending.chunks(SUBS_PER_PAGE as usize) {
            // The pack program depends on its own group's resolutions (not
            // the request-wide maximum) and, in either engine mode, on the
            // group's old-copy reads.
            let mut own = env.now_ns;
            let mut old_read_done = 0;
            for sw in group {
                own = own.max(sw.ready);
                if let Some(loc) = sw.loc {
                    if let Some(&(_, t)) = old_reads.iter().find(|&&(p, _)| p == loc.ppn) {
                        old_read_done = old_read_done.max(t);
                    }
                }
            }
            // Stamps assembled before the old locations are evicted: each
            // slot carries its sub-region's old copy, then the update.
            let stamps = track.then(|| {
                let sub_len = sub_sectors as usize;
                let mut stamps = vec![None; spp as usize];
                for (slot, sw) in group.iter().enumerate() {
                    let sub_start = sw.lpn * u64::from(spp) + u64::from(sw.sub) * sub_sectors;
                    let dst = &mut stamps[slot * sub_len..(slot + 1) * sub_len];
                    if let Some((loc, old)) =
                        sw.loc.and_then(|l| Some((l, old_stamps.get(&l.ppn)?)))
                    {
                        let src = &old[usize::from(loc.slot) * sub_len..];
                        let (start, end) = (sub_start, sub_start + sub_sectors);
                        carry_range(dst, sub_start, src, sub_start, start, end);
                    }
                    stamp_range(dst, sub_start, sw.ws, sw.we, req.version);
                }
                stamps.into_boxed_slice()
            });
            let at = self
                .core
                .engine
                .issue_at(own.max(old_read_done), ready.max(old_read_done));
            let slots = group.iter().map(|sw| (sw.lpn, sw.sub));
            let (new_ppn, done) = program_region(
                env.array,
                env.alloc,
                StreamId::Across,
                slots,
                stamps,
                env.now_ns,
                at,
            )?;
            outcome.merge_time(done);
            for (slot, sw) in group.iter().enumerate() {
                self.evict_sub_at(env, sw.lpn, sw.sub, sw.loc)?;
                let loc = SubLoc {
                    ppn: new_ppn,
                    slot: slot as u8,
                };
                set_sub_loc(&mut self.map, &mut self.residents, sw.lpn, sw.sub, loc);
            }
        }
        self.scratch_pending = pending;
        self.scratch_old_reads = old_reads;
        Ok(outcome)
    }

    fn read(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Read);
        self.core.counters.host_reads += 1;
        self.core.engine.begin_batch(env.now_ns);
        let spp = env.spp();
        let sub_sectors = u64::from(spp / SUBS_PER_PAGE);
        let track = env.array.tracks_content();
        let mut outcome = ServiceOutcome::default();
        let mut ready = env.now_ns;

        // Gather the needed (page, in-page range) pieces.
        let mut pieces = std::mem::take(&mut self.scratch_pieces);
        pieces.clear();
        for extent in req.extents(spp) {
            let t = self.map_access(env, extent.lpn, false)?;
            ready = ready.max(t);
            let es = extent.start_sector(spp);
            let ee = extent.end_sector(spp);
            let page_start = extent.lpn * u64::from(spp);
            let first_sub = (es - page_start) / sub_sectors;
            let last_sub = (ee - 1 - page_start) / sub_sectors;
            for sub in first_sub..=last_sub {
                let sub_start = page_start + sub * sub_sectors;
                let rs = es.max(sub_start);
                let re = ee.min(sub_start + sub_sectors);
                match self.map.loc(extent.lpn, sub as u32) {
                    Some(loc) => pieces.push(Piece {
                        ppn: loc.ppn,
                        page_offset: (u64::from(loc.slot) * sub_sectors + (rs - sub_start)) as u32,
                        sector: rs,
                        len: (re - rs) as u32,
                        ready: t,
                    }),
                    None => {
                        if track {
                            served_unwritten(rs, (re - rs) as u32, &mut outcome.served);
                        }
                    }
                }
            }
        }
        outcome.merge_time(ready);

        // One flash read per distinct page, serving every piece on it
        // (distinct pages ≤ pieces, a handful — linear dedup).
        let mut any_lost = false;
        for (i, p) in pieces.iter().enumerate() {
            if pieces[..i].iter().any(|q| q.ppn == p.ppn) {
                continue;
            }
            let on_page = pieces[i..].iter().filter(|q| q.ppn == p.ppn);
            // Each page read depends only on the resolutions of the pieces
            // it serves; issued then, it overlaps with map misses still in
            // flight on other chips.
            let page_ready = on_page.clone().fold(env.now_ns, |a, q| a.max(q.ready));
            let at = self.core.engine.issue_at(page_ready, ready);
            let ranges = on_page.map(|q| (q.page_offset, q.sector, q.len));
            any_lost |= serve_page(env, p.ppn, ranges, at, &mut outcome)?;
        }
        if any_lost {
            self.core.counters.host_unrecoverable_reads += 1;
        }
        self.scratch_pieces = pieces;
        Ok(outcome)
    }

    scheme_core_methods!();

    fn mapping_table_bytes(&self) -> u64 {
        self.core.table_bytes()
    }

    fn capture_image(&self) -> SchemeImage {
        // The image lists nodes by ascending LPN, which is the table's order.
        let mut image = SchemeImage::default();
        for (lpn, node) in self.map.iter() {
            match node {
                LpnMap::Page(p) => image.pages.push((lpn, p)),
                LpnMap::Sub(locs) => image
                    .subs
                    .push((lpn, locs.map(|l| l.is_some().then_some((l.ppn, l.slot))))),
            }
        }
        image
    }
}

/// Point `lpn/sub` at `loc`, converting a page-mapped node to sub-mapped
/// form if needed, and register it among `loc`'s page's residents. Takes
/// the tables apart so the GC migrator, which borrows them piecewise, can
/// call it too.
#[inline]
fn set_sub_loc(map: &mut LpnTable, residents: &mut ResidentTable, lpn: u64, sub: u32, loc: SubLoc) {
    map.set_sub(lpn, sub, loc);
    residents.push(loc.ppn, lpn, sub);
}

/// Program a region page whose slots hold `slots` — `(lpn, sub)` each, in
/// slot order — carrying `stamps`; returns the page and when its program
/// completed. The write pack and the GC repack both fill pages this way.
fn program_region(
    array: &mut FlashArray,
    alloc: &mut Allocator,
    stream: StreamId,
    slots: impl ExactSizeIterator<Item = (u64, u32)>,
    stamps: Option<PageStamps>,
    now: Nanos,
    ready: Nanos,
) -> Result<(Ppn, Nanos)> {
    let g = array.geometry();
    let n = slots.len() as u32;
    let bytes = n * (g.sectors_per_page() / SUBS_PER_PAGE) * g.sector_bytes;
    let mut oob = [(0u64, 0u8); SUBS_PER_PAGE as usize];
    for (slot, (lpn, sub)) in slots.enumerate() {
        oob[slot] = (lpn, sub as u8);
    }
    let kind = PageKind::AcrossData;
    let (ppn, w) =
        array.program_relocating(alloc, None, stream, kind, oob[0].0, bytes, now, ready)?;
    let slots = OobDesc::Slots {
        n: n as u8,
        slots: oob,
    };
    array.annotate_oob(ppn, slots);
    if let Some(stamps) = stamps {
        array.record_content(ppn, stamps);
    }
    Ok((ppn, w.complete_ns))
}

/// A live sub-region lifted off a GC victim, awaiting repacking.
#[derive(Clone)]
struct PendingSub {
    lpn: u64,
    sub: u32,
    /// Its sector stamps (content tracking only).
    stamps: Option<Vec<Option<SectorStamp>>>,
    /// When its source read completed.
    ready: Nanos,
}

/// MRSM's GC migrator: page-mapped pages move one-to-one; sub-mapped
/// region pages are *repacked* — live sub-regions from several victims
/// fill fresh pages densely, reclaiming the space fragmentation wasted.
struct MrsmMigrator<'a> {
    copier: PageCopier<'a>,
    map: &'a mut LpnTable,
    residents: &'a mut ResidentTable,
    /// Lifted sub-regions not yet repacked ([`MrsmFtl::gc_pending`]).
    pending: &'a mut Vec<PendingSub>,
    spp: u32,
}

impl MrsmMigrator<'_> {
    fn flush_chunk(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
    ) -> Result<u64> {
        let n = self.pending.len().min(SUBS_PER_PAGE as usize);
        if n == 0 {
            return Ok(0);
        }
        let chunk = &self.pending[..n];
        let sub_len = (self.spp / SUBS_PER_PAGE) as usize;
        let ready = chunk.iter().map(|p| p.ready).max().unwrap_or(now);
        let stamps = array.tracks_content().then(|| {
            let mut stamps = vec![None; self.spp as usize];
            for (slot, p) in chunk.iter().enumerate() {
                if let Some(s) = &p.stamps {
                    stamps[slot * sub_len..(slot + 1) * sub_len].copy_from_slice(s);
                }
            }
            stamps.into_boxed_slice()
        });
        let slots = chunk.iter().map(|p| (p.lpn, p.sub));
        let (new_ppn, _) = program_region(array, alloc, StreamId::Gc, slots, stamps, now, ready)?;
        for (slot, p) in chunk.iter().enumerate() {
            set_sub_loc(
                self.map,
                self.residents,
                p.lpn,
                p.sub,
                SubLoc {
                    ppn: new_ppn,
                    slot: slot as u8,
                },
            );
        }
        self.pending.drain(..n);
        Ok(1)
    }
}

impl PageMigrator for MrsmMigrator<'_> {
    fn migrate(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        old: Ppn,
        info: &PageInfo,
        report: &mut GcReport,
    ) -> Result<Option<u64>> {
        // A translation page, or a page-mapped data page — the valid user
        // page with no resident set, owned by the LPN in its program tag
        // ([`MrsmFtl::page_write`]) — moves one-to-one. So does a page
        // superseded since capture, which the copy skips: the last
        // eviction from a region page drops its resident set as it
        // invalidates the page.
        let Some(res) = self.residents.get(old).copied() else {
            let map = &mut *self.map;
            let remap = |_: &mut FlashArray, old: Ppn, new: Ppn, info: &PageInfo| {
                debug_assert!(
                    map.page_of(info.tag) == Some(old),
                    "valid user page has neither residents nor a page-mapped owner"
                );
                map.set(info.tag, LpnMap::Page(new));
            };
            return self
                .copier
                .copy(array, alloc, now, old, info, report, remap);
        };

        debug_assert_eq!(array.page_state(old), Ok(PageState::Valid));
        self.copier.counters.dram_accesses += 1;
        let page_bytes = array.geometry().page_bytes;
        let sub_sectors = (self.spp / SUBS_PER_PAGE) as usize;
        let (read, content) = array.read_old_copy(old, page_bytes, now, now)?;
        if read.is_lost() {
            report.lost_pages += 1;
        }
        // Sparse page: lift the live sub-regions into the repack buffer.
        self.residents.remove(old);
        for (lpn, sub) in res.entries() {
            let loc = self.map.loc(lpn, sub).expect("resident implies mapped");
            debug_assert_eq!(loc.ppn, old);
            let slot = loc.slot as usize;
            let stamps = content
                .as_ref()
                .map(|c| c[slot * sub_sectors..(slot + 1) * sub_sectors].to_vec());
            self.pending.push(PendingSub {
                lpn,
                sub,
                stamps,
                ready: read.complete_ns(),
            });
        }
        array.invalidate(old)?;

        let mut programs = 0;
        while self.pending.len() >= SUBS_PER_PAGE as usize {
            programs += self.flush_chunk(array, alloc, now)?;
        }
        Ok(Some(programs))
    }

    fn finish(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        _report: &mut GcReport,
    ) -> Result<u64> {
        let mut programs = 0;
        while !self.pending.is_empty() {
            programs += self.flush_chunk(array, alloc, now)?;
        }
        #[cfg(any(test, debug_assertions))]
        check_tables(self.map, self.residents);
        Ok(programs)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{RefLpnTable, RefResidentSet, RefResidentTable};
    use super::*;
    use aftl_flash::{Allocator, FlashArray, Geometry, TimingSpec};
    use proptest::prelude::*;

    fn setup() -> (FlashArray, Allocator, MrsmFtl) {
        setup_on(Geometry::tiny(), Default::default()) // spp = 8, sub-region = 2 sectors
    }

    fn setup_pipelined() -> (FlashArray, Allocator, MrsmFtl) {
        setup_on(
            Geometry::tiny(),
            crate::mapping::engine::PipelineConfig::on(),
        )
    }

    fn setup_on(
        g: Geometry,
        pipeline: crate::mapping::engine::PipelineConfig,
    ) -> (FlashArray, Allocator, MrsmFtl) {
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        array.enable_content_tracking();
        let alloc = Allocator::new(&array);
        let cfg = SchemeConfig {
            logical_pages: g.total_pages() * 9 / 10,
            cache_bytes: 1 << 20,
            gc_threshold: 0.10,
            gc_hysteresis: 0.0005,
            gc: Default::default(),
            pipeline,
            learned: Default::default(),
        };
        let ftl = MrsmFtl::new(&g, cfg);
        (array, alloc, ftl)
    }

    fn w(
        ftl: &mut MrsmFtl,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        sector: u64,
        sectors: u32,
        version: u64,
    ) {
        let req = HostRequest {
            version,
            ..HostRequest::write(0, sector, sectors)
        };
        let mut e = FtlEnv {
            array,
            alloc,
            now_ns: 0,
        };
        ftl.write(&mut e, &req).unwrap();
    }

    fn read_versions(
        ftl: &mut MrsmFtl,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        sector: u64,
        sectors: u32,
    ) -> Vec<u64> {
        let req = HostRequest::read(0, sector, sectors);
        let mut e = FtlEnv {
            array,
            alloc,
            now_ns: 0,
        };
        let out = ftl.read(&mut e, &req).unwrap();
        let mut v: Vec<(u64, u64)> = out.served.iter().map(|s| (s.sector, s.version)).collect();
        v.sort_unstable();
        v.into_iter().map(|(_, ver)| ver).collect()
    }

    #[test]
    fn across_request_packs_into_one_program() {
        let (mut array, mut alloc, mut ftl) = setup();
        // Sectors 6..12: subs (lpn0: sub3) + (lpn1: subs 0,1) = 3 subs ≤ 4.
        w(&mut ftl, &mut array, &mut alloc, 6, 6, 1);
        assert_eq!(
            array.stats().programs.across,
            1,
            "packed into one region page"
        );
        assert_eq!(array.stats().programs.data, 0);
        assert_eq!(
            read_versions(&mut ftl, &mut array, &mut alloc, 6, 6),
            vec![1; 6]
        );
    }

    #[test]
    fn sub_page_update_avoids_page_rmw() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 0, 8, 1); // full page
        let reads_before = array.stats().reads.data + array.stats().reads.across;
        // Update exactly one sub-region (sectors 2..4 = sub 1): no read.
        w(&mut ftl, &mut array, &mut alloc, 2, 2, 2);
        let reads_after = array.stats().reads.data + array.stats().reads.across;
        assert_eq!(
            reads_after, reads_before,
            "aligned sub-region overwrite needs no read"
        );
        assert_eq!(
            read_versions(&mut ftl, &mut array, &mut alloc, 0, 8),
            vec![1, 1, 2, 2, 1, 1, 1, 1]
        );
    }

    #[test]
    fn partial_sub_region_update_merges_old_data() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 0, 8, 1);
        // One sector inside sub 1 → merge with the old sub content.
        w(&mut ftl, &mut array, &mut alloc, 2, 1, 2);
        assert_eq!(ftl.counters().rmw_reads, 1);
        assert_eq!(
            read_versions(&mut ftl, &mut array, &mut alloc, 0, 8),
            vec![1, 1, 2, 1, 1, 1, 1, 1]
        );
    }

    #[test]
    fn fragmented_read_costs_multiple_page_reads() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 0, 8, 1); // page-mapped
        w(&mut ftl, &mut array, &mut alloc, 2, 2, 2); // sub 1 → region page A
        w(&mut ftl, &mut array, &mut alloc, 6, 2, 3); // sub 3 → region page B
        let reads_before = array.stats().reads.data + array.stats().reads.across;
        // Full-page read must gather from 3 pages.
        assert_eq!(
            read_versions(&mut ftl, &mut array, &mut alloc, 0, 8),
            vec![1, 1, 2, 2, 1, 1, 3, 3]
        );
        let reads_after = array.stats().reads.data + array.stats().reads.across;
        assert_eq!(reads_after - reads_before, 3);
        ftl.check_invariants();
    }

    #[test]
    fn unwritten_sub_regions_serve_zero() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 2, 2, 1);
        assert_eq!(
            read_versions(&mut ftl, &mut array, &mut alloc, 0, 8),
            vec![0, 0, 1, 1, 0, 0, 0, 0]
        );
    }

    #[test]
    fn region_page_invalidated_when_all_slots_stale() {
        let (mut array, mut alloc, mut ftl) = setup();
        // Two sub-writes land in one region page.
        w(&mut ftl, &mut array, &mut alloc, 2, 4, 1); // subs 1,2
        let across_pages_valid = |a: &FlashArray| {
            (0..a.geometry().total_pages())
                .filter(|&p| {
                    let info = a.page_info(Ppn(p)).unwrap();
                    info.is_valid() && info.kind == PageKind::AcrossData
                })
                .count()
        };
        assert_eq!(across_pages_valid(&array), 1);
        // Overwrite both subs: the old region page must go invalid.
        w(&mut ftl, &mut array, &mut alloc, 2, 4, 2);
        assert_eq!(
            across_pages_valid(&array),
            1,
            "old page invalidated, new one live"
        );
        assert_eq!(
            read_versions(&mut ftl, &mut array, &mut alloc, 2, 4),
            vec![2; 4]
        );
    }

    #[test]
    fn gc_remaps_shared_region_pages() {
        let (mut array, mut alloc, mut ftl) = setup();
        // A region page shared by two LPNs (across request).
        w(&mut ftl, &mut array, &mut alloc, 6, 4, 42); // lpn0 sub3, lpn1 sub0
        for round in 0..1200u64 {
            let lpn = 4 + (round % 16);
            w(&mut ftl, &mut array, &mut alloc, lpn * 8, 8, round);
            let mut e = FtlEnv {
                array: &mut array,
                alloc: &mut alloc,
                now_ns: 0,
            };
            ftl.maybe_gc(&mut e).unwrap();
        }
        assert!(array.stats().erases > 0);
        ftl.check_invariants();
        assert_eq!(
            read_versions(&mut ftl, &mut array, &mut alloc, 6, 4),
            vec![42; 4]
        );
    }

    /// Both engine modes keep page-mapped resident sets implicit across
    /// the whole lifecycle: full-page writes, partial splits (which write
    /// the set out in the swap-remove permutation), and GC migrations of
    /// both kinds of page.
    #[test]
    fn pipelined_gc_keeps_page_sets_implicit() {
        for (mut array, mut alloc, mut ftl) in [setup(), setup_pipelined()] {
            // A region page shared by two LPNs, plus sustained overwrite churn
            // alternating full-page and split writes so GC migrates both
            // implicit page-mapped and sub-mapped pages.
            w(&mut ftl, &mut array, &mut alloc, 6, 4, 42);
            for round in 0..1200u64 {
                let lpn = 4 + (round % 16);
                if round % 4 == 3 {
                    w(&mut ftl, &mut array, &mut alloc, lpn * 8 + 2, 2, round); // split
                } else {
                    w(&mut ftl, &mut array, &mut alloc, lpn * 8, 8, round);
                }
                let mut e = FtlEnv {
                    array: &mut array,
                    alloc: &mut alloc,
                    now_ns: 0,
                };
                ftl.maybe_gc(&mut e).unwrap();
                if round % 100 == 0 {
                    ftl.check_invariants();
                }
            }
            assert!(array.stats().erases > 0);
            ftl.check_invariants();
            assert_eq!(
                read_versions(&mut ftl, &mut array, &mut alloc, 6, 4),
                vec![42; 4]
            );
        }
    }

    #[test]
    fn tree_lookup_costs_scale_with_size() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 0, 8, 1);
        let d1 = ftl.counters().dram_accesses;
        w(&mut ftl, &mut array, &mut alloc, 8, 8, 1);
        let d2 = ftl.counters().dram_accesses - d1;
        assert!(d2 >= 1, "tree lookups cost multiple DRAM accesses");
        assert!(ftl.tree_depth() >= 1);
    }

    /// The tables hold what they map: a word per logical page and per
    /// physical page, and detail only for the live sub-mapped nodes and
    /// resident sets — not a four-word node per LPN and a set per PPN.
    #[test]
    fn tables_cost_a_word_per_page_plus_live_detail() {
        let g = Geometry {
            blocks_per_plane: 64,
            pages_per_block: 32,
            ..Geometry::tiny()
        };
        let (mut array, mut alloc, mut ftl) = setup_on(g, Default::default());
        let (spp, span) = (u64::from(g.sectors_per_page()), ftl.core.cfg.logical_pages);
        // Fill 60 % of the span, then churn it: one write in eight rewrites
        // a single sub-region (splitting the page), the rest whole pages.
        let lpns = span * 3 / 5;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..lpns + 20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let lpn = if round < lpns {
                round
            } else {
                (x >> 33) % lpns
            };
            if round >= lpns && x >> 20 & 7 == 0 {
                let sub_sectors = spp / u64::from(SUBS_PER_PAGE);
                let sector = lpn * spp + (x >> 24 & 3) * sub_sectors;
                w(
                    &mut ftl,
                    &mut array,
                    &mut alloc,
                    sector,
                    sub_sectors as u32,
                    round,
                );
            } else {
                w(
                    &mut ftl,
                    &mut array,
                    &mut alloc,
                    lpn * spp,
                    spp as u32,
                    round,
                );
            }
            let mut e = FtlEnv {
                array: &mut array,
                alloc: &mut alloc,
                now_ns: 0,
            };
            ftl.maybe_gc(&mut e).unwrap();
        }
        ftl.check_invariants();
        let (map, residents) = (&ftl.map, &ftl.residents);
        let sub_mapped = map
            .iter()
            .filter(|(_, n)| matches!(n, LpnMap::Sub(_)))
            .count();
        let sets = residents.iter().count();
        assert!(sub_mapped > 0 && sets > 0, "the churn splits pages");
        let heap = 4 * (map.words.capacity() + residents.slots.capacity())
            + map.subs.heap_bytes()
            + residents.sets.heap_bytes();
        let detail = 16 * sub_mapped + 20 * sets;
        // Slack for `Vec` growth: a slab keeps the slots freed since its
        // high-water mark, and doubling may have doubled that mark.
        let slack = 3 * detail;
        let budget = 4 * (span + g.total_pages()) as usize + detail + slack;
        assert!(
            heap <= budget,
            "tables hold {heap} B for {span} LPNs ({sub_mapped} sub-mapped), {} pages ({sets} sets): budget {budget} B",
            g.total_pages()
        );
    }

    /// The word-and-slab tables and the hashed reference, fed the same calls;
    /// [`Twins::agree`] compares everything either can be asked.
    #[derive(Default)]
    struct Twins {
        map: LpnTable,
        residents: ResidentTable,
        ref_map: RefLpnTable,
        ref_residents: RefResidentTable,
    }

    /// Keys the random operations draw from; the word arrays end a little
    /// past it, pushed one index at a time by the boundary operations.
    const KEYS: u64 = 300;

    /// One table call, as the scheme makes them: `kind` picks the call,
    /// `bits` its small arguments and whether a key is replaced by index 0
    /// or by the first index past the word array (the growth boundary).
    #[derive(Debug, Clone, Copy)]
    struct TableOp {
        kind: u8,
        lpn: u64,
        ppn: u64,
        bits: u32,
    }

    fn table_op_strategy() -> impl Strategy<Value = TableOp> {
        (0u8..12, 0..KEYS, 0..KEYS, any::<u32>()).prop_map(|(kind, lpn, ppn, bits)| TableOp {
            kind,
            lpn,
            ppn,
            bits,
        })
    }

    impl Twins {
        fn apply(&mut self, op: TableOp) {
            let edge = |key: u64, sel: u32, boundary: usize| match sel % 8 {
                0 => 0,
                1 => boundary as u64,
                _ => key,
            };
            let lpn = edge(op.lpn, op.bits >> 16, self.map.words.len());
            let ppn = Ppn(edge(op.ppn, op.bits >> 19, self.residents.slots.len()));
            let sub = op.bits & 3;
            let slot = (op.bits >> 2 & 3) as u8;
            match op.kind {
                0 => {
                    self.map.set(lpn, LpnMap::Page(ppn));
                    self.ref_map.set(lpn, LpnMap::Page(ppn));
                }
                1 => {
                    let locs = std::array::from_fn(|s| {
                        if op.bits >> (8 + s) & 1 == 1 {
                            SubLoc {
                                ppn: Ppn((ppn.0 + 7 * s as u64) % KEYS),
                                slot: (op.bits >> (2 * s) & 3) as u8,
                            }
                        } else {
                            SubLoc::NONE
                        }
                    });
                    self.map.set(lpn, LpnMap::Sub(locs));
                    self.ref_map.set(lpn, LpnMap::Sub(locs));
                }
                2 | 3 => {
                    self.map.set_sub(lpn, sub, SubLoc { ppn, slot });
                    self.ref_map.set_sub(lpn, sub, SubLoc { ppn, slot });
                }
                // A flash page has four slots: the scheme never pushes a fifth.
                4..=6
                    if self
                        .ref_residents
                        .get(ppn)
                        .map_or(0, |s| s.as_slice().len())
                        < 4 =>
                {
                    self.residents.push(ppn, lpn, sub);
                    self.ref_residents.push(ppn, lpn, sub);
                }
                7 if self.ref_residents.get(ppn).is_none() => {
                    self.residents.insert_set(ppn, ResidentSet::of_page(lpn));
                    let mut set = RefResidentSet::new(ppn);
                    for s in 0..SUBS_PER_PAGE {
                        set.push(lpn, s);
                    }
                    self.ref_residents.insert_set(ppn, set);
                }
                8..=10 => {
                    // Mostly an entry the set holds, sometimes one it may not.
                    let (lpn, sub) = match self.ref_residents.get(ppn) {
                        Some(set) if op.bits >> 4 & 3 != 0 => {
                            set.as_slice()[(op.bits >> 6) as usize % set.as_slice().len()]
                        }
                        _ => (lpn, sub),
                    };
                    assert_eq!(
                        self.residents.swap_remove_entry(ppn, lpn, sub),
                        self.ref_residents.swap_remove_entry(ppn, lpn, sub)
                    );
                }
                11 => {
                    let new = self.residents.remove(ppn);
                    let old = self.ref_residents.remove(ppn);
                    assert_eq!(
                        new.map(|s| s.entries().collect::<Vec<_>>()),
                        old.map(|s| s.as_slice().to_vec())
                    );
                }
                _ => {}
            }
        }

        /// Equal nodes, locations and mapped count over every LPN, equal
        /// sets in equal entry order over every PPN, and the LPN-ordered
        /// walk `capture_image` takes equal to the reference's, sorted.
        fn agree(&self) -> std::result::Result<(), String> {
            for lpn in 0..self.map.words.len() as u64 + 2 {
                let (new, old) = (self.map.get(lpn), self.ref_map.get(lpn).copied());
                if new != old {
                    return Err(format!("lpn {lpn}: node {new:?}, reference {old:?}"));
                }
                let page = match old {
                    Some(LpnMap::Page(p)) => Some(p),
                    _ => None,
                };
                if self.map.page_of(lpn) != page {
                    return Err(format!("lpn {lpn}: page_of disagrees with {old:?}"));
                }
                for sub in 0..SUBS_PER_PAGE {
                    let old = match old {
                        None => None,
                        Some(LpnMap::Page(ppn)) => Some(SubLoc {
                            ppn,
                            slot: sub as u8,
                        }),
                        Some(LpnMap::Sub(locs)) => Some(locs[sub as usize]).filter(|l| l.is_some()),
                    };
                    let new = self.map.loc(lpn, sub);
                    if new != old {
                        return Err(format!("({lpn},{sub}): at {new:?}, reference {old:?}"));
                    }
                }
            }
            if self.map.len() != self.ref_map.len() {
                return Err(format!(
                    "{} mapped LPNs, reference {}",
                    self.map.len(),
                    self.ref_map.len()
                ));
            }
            let mut sorted: Vec<(u64, LpnMap)> =
                self.ref_map.iter().map(|(l, n)| (l, *n)).collect();
            sorted.sort_unstable_by_key(|&(l, _)| l);
            if !self.map.iter().eq(sorted) {
                return Err("LPN-ordered walk differs from the sorted reference".into());
            }
            for ppn in (0..self.residents.slots.len() as u64 + 2).map(Ppn) {
                let new = self
                    .residents
                    .get(ppn)
                    .map(|s| s.entries().collect::<Vec<_>>());
                let old = self.ref_residents.get(ppn).map(|s| s.as_slice().to_vec());
                if new != old {
                    return Err(format!("{ppn:?}: holds {new:?}, reference {old:?}"));
                }
            }
            let sets = self.residents.iter().count();
            if sets != self.ref_residents.len() {
                return Err(format!(
                    "{sets} resident sets, reference {}",
                    self.ref_residents.len()
                ));
            }
            Ok(())
        }
    }

    impl TableOp {
        /// `kind` on exactly `lpn` and `ppn` (no boundary substitution),
        /// with sub-region and slot `sub`; a whole sub-mapped node gets no
        /// location, and a swap-remove takes `(lpn, sub)` itself.
        fn on(kind: u8, lpn: u64, ppn: u64, sub: u32) -> Self {
            let bits = 2 << 16 | 2 << 19 | sub << 2 | sub;
            TableOp {
                kind,
                lpn,
                ppn,
                bits,
            }
        }
    }

    /// Calls that free slab slots and take them again, which random calls
    /// reach only by chance. LPN 5 goes sub → page → sub, back into the
    /// slot it freed; LPN 7 is first sub-mapped in the slot LPN 6 freed.
    /// PPN 30's set empties by swap-remove before PPN 31's is made; PPN
    /// 32's is removed whole before PPN 33's is made in its slot.
    fn slot_reuse_script() -> [TableOp; 15] {
        let (set_page, set_sub, push, swap_remove, remove) = (0, 2, 4, 8, 11);
        [
            TableOp::on(set_sub, 5, 10, 1),
            TableOp::on(set_sub, 6, 11, 2),
            TableOp::on(set_page, 5, 20, 0),
            TableOp::on(set_sub, 5, 12, 3),
            TableOp::on(set_page, 6, 21, 0),
            TableOp::on(set_sub, 7, 13, 0),
            TableOp::on(push, 5, 30, 0),
            TableOp::on(push, 6, 30, 1),
            TableOp::on(swap_remove, 5, 30, 0),
            TableOp::on(swap_remove, 6, 30, 1),
            TableOp::on(push, 7, 31, 2),
            TableOp::on(push, 8, 32, 0),
            TableOp::on(push, 8, 32, 1),
            TableOp::on(remove, 0, 32, 0),
            TableOp::on(push, 9, 33, 3),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whatever the call sequence, the slab tables and the hashed
        /// reference stay indistinguishable — nodes, mapped count, and the
        /// entry order within every resident set, which GC repack turns
        /// into flash slot assignments — from a start that frees and
        /// reuses slots of both slabs.
        #[test]
        fn dense_tables_equal_hashed_reference(
            ops in collection::vec(table_op_strategy(), 100..600)
        ) {
            let mut t = Twins::default();
            for (step, &op) in slot_reuse_script().iter().chain(&ops).enumerate() {
                t.apply(op);
                if let Err(e) = t.agree() {
                    return Err(TestCaseError::fail(format!("after step {step} ({op:?}): {e}")));
                }
            }
        }
    }
}
