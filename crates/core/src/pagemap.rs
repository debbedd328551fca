//! The shared core under all four schemes, and the page-mapped FTL on it.
//!
//! [`SchemeCore`] is what does not depend on a scheme's table shape: the
//! scheme config, the GC driver, the map engine, the counters, the
//! touched-translation-page set with its sizing, GC's one-to-one page copy
//! ([`PageCopier`]) and the one read that serves a mapped page
//! ([`serve_page`]). Every scheme holds one.
//!
//! The paper defines Across-FTL as the page-level FTL plus an overlay (an
//! `AIdx` field in the PMT and a second-level AMT, §3.2); Learned-FTL is
//! the page-level FTL plus a read predictor that bypasses the translation
//! read. [`PageMapCore`] is that page-level FTL once, on top of the shared
//! core: the lazily allocated PMT behind the map engine, the
//! read-modify-write extent program, the GC remap of `Data` pages, and the
//! `(lpn, ppn)` image a checkpoint captures and recovery reloads. Baseline,
//! Learned-FTL and Across-FTL hold one and add their policy; its fields are
//! theirs to reach (`core.pmt` for Across-FTL's `AIdx` links, `core.engine`
//! for its AMT lookups). MRSM holds the shared core alone, under its own
//! sub-page tables.

use std::ops::{Deref, DerefMut};

use aftl_flash::{
    Allocator, FlashArray, Geometry, Nanos, PageInfo, PageKind, Ppn, Result, SectorStamp, StreamId,
};

use crate::counters::SchemeCounters;
use crate::gc::{CopyMigrator, GcConfig, GcReport, GcState, PageMigrator};
use crate::mapping::engine::MapEngine;
use crate::mapping::pmt::{assert_ppns_fit, PageMapTable};
use crate::mapping::touched::TouchedSet;
use crate::recovery::SchemeImage;
use crate::request::PageExtent;
use crate::scheme::{
    extent_stamps, served_from_page, served_lost, served_unwritten, FtlEnv, PrefetchStage,
    SchemeConfig, ServiceOutcome,
};

/// State and code every scheme shares, whatever its mapping table.
#[derive(Clone)]
pub(crate) struct SchemeCore {
    pub(crate) cfg: SchemeConfig,
    gc: GcState,
    pub(crate) engine: MapEngine,
    pub(crate) counters: SchemeCounters,
    /// Translation pages ever touched — the dynamically allocated table
    /// footprint reported in Figure 12(a).
    touched_tpages: TouchedSet,
    entries_per_tpage: u64,
    pub(crate) page_bytes: u32,
}

impl SchemeCore {
    /// A core for `geometry` whose mapping entries are modelled at
    /// `entry_bytes` each.
    pub(crate) fn new(geometry: &Geometry, cfg: SchemeConfig, entry_bytes: u64) -> Self {
        let page_bytes = geometry.page_bytes;
        SchemeCore {
            gc: GcState::new(GcConfig {
                threshold: cfg.gc_threshold,
                hysteresis: cfg.gc_hysteresis,
                tuning: cfg.gc,
            }),
            engine: MapEngine::new(cfg.cache_tpages(page_bytes), cfg.pipeline),
            cfg,
            counters: SchemeCounters::default(),
            touched_tpages: TouchedSet::new(),
            entries_per_tpage: u64::from(page_bytes) / entry_bytes,
            page_bytes,
        }
    }

    /// Refuse a recovered `(lpn, ppn)` pair that is off the exported space
    /// or off the device (see [`crate::recovery`]).
    pub(crate) fn assert_on_device(&self, geometry: &Geometry, lpn: u64, ppn: Ppn) {
        assert!(
            lpn < self.cfg.logical_pages,
            "image maps lpn {lpn}, off the device"
        );
        assert!(
            ppn.0 < geometry.total_pages(),
            "image maps lpn {lpn} to {ppn:?}, off the device"
        );
    }

    /// Translation page holding `lpn`'s mapping entry.
    #[inline]
    pub(crate) fn tpid(&self, lpn: u64) -> u64 {
        lpn / self.entries_per_tpage
    }

    /// Count `lpn`'s translation page as touched; returns its id.
    #[inline]
    pub(crate) fn touch(&mut self, lpn: u64) -> u64 {
        let tpid = self.tpid(lpn);
        self.touched_tpages.insert(tpid);
        tpid
    }

    /// Bytes of translation pages touched so far.
    pub(crate) fn table_bytes(&self) -> u64 {
        self.touched_tpages.len() * u64::from(self.page_bytes)
    }

    /// One mapping-table consultation costing `dram_accesses`: a cache
    /// probe of translation page `tpid` (possibly loading or flushing one).
    /// Returns when the entry is available.
    #[inline]
    pub(crate) fn resolve(
        &mut self,
        env: &mut FtlEnv<'_>,
        tpid: u64,
        dram_accesses: u64,
        dirty: bool,
    ) -> Result<Nanos> {
        self.counters.dram_accesses += dram_accesses;
        self.engine
            .resolve(env.array, env.alloc, env.now_ns, tpid, dirty)
    }

    /// The GC driver and the one-to-one copier, borrowed apart so a
    /// scheme's migrator can hold the copier and still drive collection.
    pub(crate) fn gc_parts(&mut self) -> (&mut GcState, PageCopier<'_>) {
        let copier = PageCopier {
            engine: &mut self.engine,
            counters: &mut self.counters,
        };
        (&mut self.gc, copier)
    }
}

/// The [`FtlScheme`](crate::scheme::FtlScheme) methods every scheme
/// answers from its `core` alone, and foreground and idle GC through its
/// own `run_gc(env, idle_budget)`. Expands inside the scheme's impl.
macro_rules! scheme_core_methods {
    () => {
        fn maybe_gc(
            &mut self,
            env: &mut $crate::scheme::FtlEnv<'_>,
        ) -> aftl_flash::Result<$crate::gc::GcReport> {
            self.run_gc(env, None)
        }

        fn idle_gc(
            &mut self,
            env: &mut $crate::scheme::FtlEnv<'_>,
            max_pages: u64,
        ) -> aftl_flash::Result<$crate::gc::GcReport> {
            self.run_gc(env, Some(max_pages))
        }

        fn counters(&self) -> &$crate::counters::SchemeCounters {
            &self.core.counters
        }

        fn cache_stats(&self) -> $crate::mapping::cache::CacheStats {
            *self.core.engine.cache_stats()
        }

        fn map_engine_stats(&self) -> $crate::mapping::engine::MapEngineStats {
            *self.core.engine.stats()
        }

        fn logical_pages(&self) -> u64 {
            self.core.cfg.logical_pages
        }
    };
}
pub(crate) use scheme_core_methods;

/// GC's one-to-one move: a valid page is copied to a fresh page and the
/// table that names it is pointed at the copy — the map cache for a `Map`
/// page, the scheme's own table for every other kind.
pub(crate) struct PageCopier<'a> {
    engine: &'a mut MapEngine,
    pub(crate) counters: &'a mut SchemeCounters,
}

impl PageCopier<'_> {
    /// Copy `old` one-to-one ([`CopyMigrator`]) and remap it: a `Map` page
    /// in the map cache, any other through `remap(array, old, new, info)`.
    /// Each remap is one DRAM access. `None` when `old` was superseded
    /// since GC captured it ([`PageMigrator::migrate`]).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn copy(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        old: Ppn,
        info: &PageInfo,
        report: &mut GcReport,
        mut remap: impl FnMut(&mut FlashArray, Ppn, Ppn, &PageInfo),
    ) -> Result<Option<u64>> {
        let (engine, counters) = (&mut *self.engine, &mut *self.counters);
        let mut copy = CopyMigrator(
            |array: &mut FlashArray, old: Ppn, new: Ppn, info: &PageInfo| {
                counters.dram_accesses += 1;
                match info.kind {
                    PageKind::Map => engine.note_migrated(info.tag, new),
                    _ => remap(array, old, new, info),
                }
            },
        );
        copy.migrate(array, alloc, now, old, info, report)
    }
}

/// Serve `ranges` — `(in-page sector offset, first sector, count)` each —
/// of page `ppn` ([`Ppn::INVALID`] = never written): one flash read of
/// their total size issued at `at` through the retry ladder and, with
/// content tracking on, the sector provenance the oracle checks. Returns
/// whether the ladder was exhausted; the caller counts the host read the
/// device could not recover by its own rule.
#[inline]
pub(crate) fn serve_page<R>(
    env: &mut FtlEnv<'_>,
    ppn: Ppn,
    ranges: R,
    at: Nanos,
    outcome: &mut ServiceOutcome,
) -> Result<bool>
where
    R: IntoIterator<Item = (u32, u64, u32)> + Clone,
{
    let track = env.array.tracks_content();
    if !ppn.is_valid() {
        if track {
            for (_, first_sector, count) in ranges {
                served_unwritten(first_sector, count, &mut outcome.served);
            }
        }
        return Ok(false);
    }
    let sectors = ranges.clone().into_iter().map(|(_, _, count)| count).sum();
    let r = env
        .array
        .read_with_retry(ppn, env.sectors_to_bytes(sectors), env.now_ns, at)?;
    outcome.merge_time(r.complete_ns());
    if track {
        for (page_offset, first_sector, count) in ranges {
            if r.is_lost() {
                served_lost(first_sector, count, &mut outcome.served);
            } else {
                served_from_page(
                    env.array,
                    ppn,
                    page_offset,
                    first_sector,
                    count,
                    &mut outcome.served,
                );
            }
        }
    }
    Ok(r.is_lost())
}

/// The page-level FTL: the shared core plus the PMT.
#[derive(Clone)]
pub(crate) struct PageMapCore {
    base: SchemeCore,
    /// Empty until the first request, GC call or image load: an FTL that
    /// is built and never driven costs no table.
    pub(crate) pmt: PageMapTable,
}

impl Deref for PageMapCore {
    type Target = SchemeCore;

    #[inline]
    fn deref(&self) -> &SchemeCore {
        &self.base
    }
}

impl DerefMut for PageMapCore {
    #[inline]
    fn deref_mut(&mut self) -> &mut SchemeCore {
        &mut self.base
    }
}

impl PageMapCore {
    /// A core for `geometry` whose PMT entries are modelled at
    /// `entry_bytes` each. Refuses a geometry whose PPNs do not fit a
    /// table word before anything is sized from it.
    pub(crate) fn new(geometry: &Geometry, cfg: SchemeConfig, entry_bytes: u64) -> Self {
        assert_ppns_fit(geometry);
        PageMapCore {
            base: SchemeCore::new(geometry, cfg, entry_bytes),
            pmt: PageMapTable::new(0),
        }
    }

    /// Allocate the PMT on first use.
    #[inline]
    pub(crate) fn ensure_pmt(&mut self) {
        if self.pmt.logical_pages() == 0 {
            self.pmt = PageMapTable::new(self.cfg.logical_pages);
        }
    }

    /// Install a recovered `(lpn, ppn)` mapping (see [`crate::recovery`]).
    /// The pairs come from a flash scan or a checkpoint, so each is checked
    /// against the exported space and the device before it is stored.
    pub(crate) fn load_pages(&mut self, geometry: &Geometry, pages: &[(u64, Ppn)]) {
        self.ensure_pmt();
        for &(lpn, ppn) in pages {
            self.assert_on_device(geometry, lpn, ppn);
            self.pmt.set_ppn(lpn, ppn);
        }
    }

    /// The core's checkpoint image: every mapped `(lpn, ppn)` pair in LPN
    /// order.
    pub(crate) fn image(&self) -> SchemeImage {
        let pages = (0..self.pmt.logical_pages())
            .map(|lpn| (lpn, self.pmt.get(lpn).ppn))
            .filter(|(_, ppn)| ppn.is_valid())
            .collect();
        SchemeImage {
            pages,
            ..SchemeImage::default()
        }
    }

    /// One stage of request-ahead prefetch for `lpn`
    /// ([`crate::Scheme::prefetch`]): its PMT slot, or the flash metadata
    /// of the page the slot maps. Nothing past the PMT, which is empty
    /// until the scheme is first driven.
    #[inline]
    pub(crate) fn prefetch(&self, array: &FlashArray, lpn: u64, stage: PrefetchStage) {
        if self.pmt.in_range(lpn) {
            match stage {
                PrefetchStage::Far => self.pmt.prefetch(lpn),
                PrefetchStage::Near => array.prefetch_page(self.pmt.get(lpn).ppn),
            }
        }
    }

    /// One PMT consultation: a cache probe (possibly loading/flushing a
    /// translation page) plus one DRAM access. Returns when the entry is
    /// available.
    #[inline]
    pub(crate) fn map_access(
        &mut self,
        env: &mut FtlEnv<'_>,
        lpn: u64,
        dirty: bool,
    ) -> Result<Nanos> {
        let tpid = self.touch(lpn);
        self.resolve(env, tpid, 1, dirty)
    }

    /// Program a normally-mapped page for `extent`, with read-modify-write
    /// when the extent is partial and the LPN already has data (the
    /// conventional-FTL behaviour whose cost Across-FTL avoids for
    /// across-page requests). `at` is when the program — or the old copy's
    /// read before it — may issue; returns the program completion time.
    #[inline]
    pub(crate) fn program_extent(
        &mut self,
        env: &mut FtlEnv<'_>,
        extent: &PageExtent,
        version: u64,
        at: Nanos,
        stamps_override: Option<Box<[Option<SectorStamp>]>>,
    ) -> Result<Nanos> {
        let (array, alloc, now_ns) = (&mut *env.array, &mut *env.alloc, env.now_ns);
        let spp = array.geometry().sectors_per_page();
        let page_bytes = array.geometry().page_bytes;
        let sector_bytes = array.geometry().sector_bytes;
        let old = self.pmt.get(extent.lpn).ppn;

        let mut ready = at;
        let mut base_stamps = None;
        let rmw = !extent.is_full_page(spp) && old.is_valid();
        if rmw {
            // Read the old copy to preserve the sectors the extent misses.
            // If it is lost, the merged page carries its loss stamps for
            // them, so later reads report the acknowledged loss instead of
            // stale data.
            let (read, stamps) = array.read_old_copy(old, page_bytes, now_ns, ready)?;
            ready = read.complete_ns();
            if read.is_lost() {
                self.counters.lost_pages += 1;
            }
            base_stamps = stamps;
            self.counters.rmw_reads += 1;
        }

        let bytes = if rmw {
            page_bytes
        } else {
            extent.len * sector_bytes
        };
        let (new_ppn, w) = array.program_relocating(
            alloc,
            None,
            StreamId::Data,
            PageKind::Data,
            extent.lpn,
            bytes,
            now_ns,
            ready,
        )?;
        if array.tracks_content() {
            let stamps = stamps_override
                .unwrap_or_else(|| extent_stamps(spp, extent, version, base_stamps.as_deref()));
            array.record_content(new_ppn, stamps);
        }
        let prev = self.pmt.set_ppn(extent.lpn, new_ppn);
        if prev.is_valid() {
            array.invalidate(prev)?;
        }
        Ok(w.complete_ns)
    }

    /// Serve `extent` from `ppn`, the page its LPN maps to ([`serve_page`]),
    /// counting an exhausted ladder as one host read the device could not
    /// recover.
    #[inline]
    pub(crate) fn serve_extent(
        &mut self,
        env: &mut FtlEnv<'_>,
        ppn: Ppn,
        extent: &PageExtent,
        at: Nanos,
        outcome: &mut ServiceOutcome,
    ) -> Result<()> {
        let range = (extent.offset, extent.start_sector(env.spp()), extent.len);
        if serve_page(env, ppn, [range], at, outcome)? {
            self.counters.host_unrecoverable_reads += 1;
        }
        Ok(())
    }

    /// The GC driver and the migrator over the core's tables, borrowed
    /// apart so a scheme can wrap the migrator with its own page kind
    /// (Learned-FTL's sorted repack of `Data` pages, Across-FTL's area
    /// pages) and still drive the collection.
    pub(crate) fn gc_parts(&mut self) -> (&mut GcState, CoreMigrator<'_>) {
        self.ensure_pmt();
        let (gc, copier) = self.base.gc_parts();
        (
            gc,
            CoreMigrator {
                copier,
                pmt: &mut self.pmt,
            },
        )
    }

    /// Foreground (`idle_budget` = `None`) or idle (`Some(max_pages)`)
    /// collection with the core's migrator alone.
    pub(crate) fn collect(
        &mut self,
        env: &mut FtlEnv<'_>,
        idle_budget: Option<u64>,
    ) -> Result<GcReport> {
        let (gc, mut migrator) = self.gc_parts();
        gc.collect(env.array, env.alloc, env.now_ns, idle_budget, &mut migrator)
    }
}

/// GC over the page-mapped tables: a `Data` or `Map` page is copied
/// one-to-one and the PMT or the map cache pointed at the copy.
pub(crate) struct CoreMigrator<'a> {
    pub(crate) copier: PageCopier<'a>,
    pub(crate) pmt: &'a mut PageMapTable,
}

impl PageMigrator for CoreMigrator<'_> {
    fn prefetch(&self, pages: &[(Ppn, PageInfo)]) {
        for (_, info) in pages {
            if info.kind == PageKind::Data {
                std::hint::black_box(self.pmt.get(info.tag));
            }
        }
    }

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
        let pmt = &mut *self.pmt;
        let remap = |_: &mut FlashArray, old: Ppn, new: Ppn, info: &PageInfo| {
            debug_assert_eq!(
                info.kind,
                PageKind::Data,
                "the scheme that writes across-data pages remaps them"
            );
            let prev = pmt.set_ppn(info.tag, new);
            debug_assert_eq!(prev, old, "GC migrated a stale data page");
        };
        self.copier
            .copy(array, alloc, now, old, info, report, remap)
    }
}

#[cfg(test)]
mod tests {
    use crate::recovery::SchemeImage;
    use crate::scheme::SchemeConfig;
    use crate::{AcrossFtl, BaselineFtl, LearnedFtl};
    use aftl_flash::{Geometry, Ppn};

    /// A device, its config, and a recovered image whose second pair names
    /// a PPN one past the device's last — below 2³², so the table's word
    /// would take it.
    fn image_off_the_device() -> (Geometry, SchemeConfig, SchemeImage) {
        let g = Geometry::tiny();
        let image = SchemeImage {
            pages: vec![(0, Ppn(3)), (1, Ppn(g.total_pages()))],
            ..SchemeImage::default()
        };
        (g, SchemeConfig::for_geometry(&g), image)
    }

    #[test]
    #[should_panic(expected = "image maps lpn 1 to Ppn(512), off the device")]
    fn baseline_image_with_a_ppn_off_the_device_is_refused() {
        let (g, cfg, image) = image_off_the_device();
        BaselineFtl::from_image(&g, cfg, &image);
    }

    #[test]
    #[should_panic(expected = "image maps lpn 1 to Ppn(512), off the device")]
    fn learned_image_with_a_ppn_off_the_device_is_refused() {
        let (g, cfg, image) = image_off_the_device();
        LearnedFtl::from_image(&g, cfg, &image);
    }

    #[test]
    #[should_panic(expected = "image maps lpn 1 to Ppn(512), off the device")]
    fn across_image_with_a_ppn_off_the_device_is_refused() {
        let (g, cfg, image) = image_off_the_device();
        AcrossFtl::from_image(&g, cfg, &image);
    }

    /// An LPN past the exported space used to be an anonymous slice-index
    /// panic inside the table.
    #[test]
    #[should_panic(expected = "image maps lpn 460, off the device")]
    fn image_with_an_lpn_past_the_exported_space_is_refused() {
        let (g, cfg, _) = image_off_the_device();
        assert_eq!(cfg.logical_pages, 460);
        let image = SchemeImage {
            pages: vec![(cfg.logical_pages, Ppn(3))],
            ..SchemeImage::default()
        };
        BaselineFtl::from_image(&g, cfg, &image);
    }
}
