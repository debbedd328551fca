//! The page-mapped core: what the baseline FTL *is*, and what Learned-FTL
//! and Across-FTL are built on.
//!
//! The paper defines Across-FTL as the page-level FTL plus an overlay (an
//! `AIdx` field in the PMT and a second-level AMT, §3.2); Learned-FTL is
//! the page-level FTL plus a read predictor that bypasses the translation
//! read. [`PageMapCore`] is that page-level FTL once: the lazily allocated
//! PMT behind the map engine, the read-modify-write extent program, the
//! read of a mapped page with its loss accounting, the GC remap of `Data`
//! and `Map` pages, and the `(lpn, ppn)` image a checkpoint captures and
//! recovery reloads. The schemes hold one and add their policy; its fields
//! are theirs to reach (`core.pmt` for Across-FTL's `AIdx` links,
//! `core.engine` for its AMT lookups).

use aftl_flash::{
    Allocator, FlashArray, Geometry, Nanos, PageInfo, PageKind, Ppn, Result, SectorStamp, StreamId,
};

use crate::counters::SchemeCounters;
use crate::gc::{CopyMigrator, GcConfig, GcReport, GcState, PageMigrator};
use crate::mapping::engine::MapEngine;
use crate::mapping::pmt::{assert_ppns_fit, PageMapTable};
use crate::mapping::touched::TouchedSet;
use crate::recover::{lost_stamps_of, program_relocating, read_with_retry, PageRead};
use crate::recovery::SchemeImage;
use crate::request::PageExtent;
use crate::scheme::{
    extent_stamps, served_after_read, served_unwritten, FtlEnv, SchemeConfig, ServiceOutcome,
};

/// State and code shared by the page-mapped schemes.
pub(crate) struct PageMapCore {
    pub(crate) cfg: SchemeConfig,
    gc: GcState,
    /// Empty until the first request, GC call or image load: an FTL that
    /// is built and never driven costs no table.
    pub(crate) pmt: PageMapTable,
    pub(crate) engine: MapEngine,
    pub(crate) counters: SchemeCounters,
    /// Translation pages ever touched — the dynamically allocated table
    /// footprint reported in Figure 12(a).
    touched_tpages: TouchedSet,
    entries_per_tpage: u64,
    pub(crate) page_bytes: u32,
}

impl PageMapCore {
    /// A core for `geometry` whose PMT entries are modelled at
    /// `entry_bytes` each. Refuses a geometry whose PPNs do not fit a
    /// table word before anything is sized from it.
    pub(crate) fn new(geometry: &Geometry, cfg: SchemeConfig, entry_bytes: u64) -> Self {
        assert_ppns_fit(geometry);
        let page_bytes = geometry.page_bytes;
        PageMapCore {
            gc: GcState::new(GcConfig {
                threshold: cfg.gc_threshold,
                hysteresis: cfg.gc_hysteresis,
                tuning: cfg.gc,
            }),
            engine: MapEngine::new(cfg.cache_tpages(page_bytes), cfg.pipeline),
            cfg,
            pmt: PageMapTable::new(0),
            counters: SchemeCounters::default(),
            touched_tpages: TouchedSet::new(),
            entries_per_tpage: u64::from(page_bytes) / entry_bytes,
            page_bytes,
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
            assert!(
                lpn < self.cfg.logical_pages,
                "image maps lpn {lpn}, off the device"
            );
            assert!(
                ppn.0 < geometry.total_pages(),
                "image maps lpn {lpn} to {ppn:?}, off the device"
            );
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

    /// Translation page holding `lpn`'s PMT entry.
    #[inline]
    pub(crate) fn tpid(&self, lpn: u64) -> u64 {
        lpn / self.entries_per_tpage
    }

    /// Bytes of PMT translation pages touched so far.
    pub(crate) fn table_bytes(&self) -> u64 {
        self.touched_tpages.len() * u64::from(self.page_bytes)
    }

    /// One PMT consultation: a cache probe (possibly loading/flushing a
    /// translation page) plus the DRAM access accounting. Returns when the
    /// entry is available.
    #[inline]
    pub(crate) fn map_access(
        &mut self,
        env: &mut FtlEnv<'_>,
        lpn: u64,
        dirty: bool,
    ) -> Result<Nanos> {
        let tpid = self.tpid(lpn);
        self.touched_tpages.insert(tpid);
        self.counters.dram_accesses += 1;
        self.engine
            .resolve(env.array, env.alloc, env.now_ns, tpid, dirty)
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
        let mut base_stamps: Option<Box<[Option<SectorStamp>]>> = None;
        let rmw = !extent.is_full_page(spp) && old.is_valid();
        if rmw {
            // Read the old copy to preserve the sectors the extent misses.
            match read_with_retry(array, old, page_bytes, now_ns, ready)? {
                PageRead::Ok(r) => {
                    ready = r.complete_ns;
                    if array.tracks_content() {
                        base_stamps = array.content_of(old).map(|s| s.to_vec().into_boxed_slice());
                    }
                }
                PageRead::Lost { complete_ns } => {
                    // The sectors the extent misses are gone; the merged
                    // page carries LOST_VERSION stamps for them so later
                    // reads report the acknowledged loss instead of stale
                    // data.
                    ready = complete_ns;
                    self.counters.lost_pages += 1;
                    if array.tracks_content() {
                        base_stamps = lost_stamps_of(array, old);
                    }
                }
            }
            self.counters.rmw_reads += 1;
        }

        let bytes = if rmw {
            page_bytes
        } else {
            extent.len * sector_bytes
        };
        let (new_ppn, w) = program_relocating(
            array,
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

    /// Serve `extent` from `ppn`, the page its LPN maps to
    /// ([`Ppn::INVALID`] = never written): one flash read issued at `at`
    /// through the retry ladder, an exhausted ladder counted as a host
    /// read the device could not recover, and — with content tracking on —
    /// the sector provenance the oracle checks.
    #[inline]
    pub(crate) fn serve_extent(
        &mut self,
        env: &mut FtlEnv<'_>,
        ppn: Ppn,
        extent: &PageExtent,
        at: Nanos,
        outcome: &mut ServiceOutcome,
    ) -> Result<()> {
        let first_sector = extent.start_sector(env.spp());
        let track = env.array.tracks_content();
        if !ppn.is_valid() {
            if track {
                served_unwritten(first_sector, extent.len, &mut outcome.served);
            }
            return Ok(());
        }
        let bytes = env.sectors_to_bytes(extent.len);
        let r = read_with_retry(env.array, ppn, bytes, env.now_ns, at)?;
        outcome.merge_time(r.complete_ns());
        if r.is_lost() {
            self.counters.host_unrecoverable_reads += 1;
        }
        if track {
            let range = (extent.offset, first_sector, extent.len);
            served_after_read(env.array, &r, ppn, [range], &mut outcome.served);
        }
        Ok(())
    }

    /// The GC driver and the migrator over the core's tables, borrowed
    /// apart so a scheme can wrap the migrator with its own page kind
    /// (Learned-FTL's sorted repack of `Data` pages, Across-FTL's area
    /// pages) and still drive the collection.
    pub(crate) fn gc_parts(&mut self) -> (&mut GcState, CoreMigrator<'_>) {
        self.ensure_pmt();
        let migrator = CoreMigrator {
            pmt: &mut self.pmt,
            engine: &mut self.engine,
            counters: &mut self.counters,
        };
        (&mut self.gc, migrator)
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

/// GC over the core's tables: a valid page is copied one-to-one and the
/// table that names it is pointed at the copy — the PMT for a `Data` page,
/// the map cache for a `Map` page.
pub(crate) struct CoreMigrator<'a> {
    pub(crate) pmt: &'a mut PageMapTable,
    engine: &'a mut MapEngine,
    pub(crate) counters: &'a mut SchemeCounters,
}

impl PageMigrator for CoreMigrator<'_> {
    fn migrate(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        old: Ppn,
        info: &PageInfo,
        report: &mut GcReport,
    ) -> Result<u64> {
        let mut copy = CopyMigrator(|_: &mut FlashArray, old: Ppn, new: Ppn, info: &PageInfo| {
            self.counters.dram_accesses += 1;
            match info.kind {
                PageKind::Data => {
                    let prev = self.pmt.set_ppn(info.tag, new);
                    debug_assert_eq!(prev, old, "GC migrated a stale data page");
                }
                PageKind::Map => self.engine.note_migrated(info.tag, new),
                PageKind::AcrossData => {
                    unreachable!("the scheme that writes across-data pages remaps them")
                }
            }
        });
        copy.migrate(array, alloc, now, old, info, report)
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
