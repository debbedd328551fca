//! **Across-FTL** (§3 of the paper).
//!
//! Across-page write requests — no larger than one page but spanning two
//! logical pages — are re-aligned onto a single physical page in a
//! dedicated *across-page area*, tracked by the second-level AMT. The PMT
//! gains an `AIdx` field linking each spanned LPN to its area.
//!
//! Updates that overlap an area are serviced by:
//! * **AMerge** — when the union of the area and the update still fits in
//!   one page: read the area, merge, program a new area page (same `AIdx`).
//!   *Profitable* when triggered by an across-page request (a flush is
//!   saved vs conventional FTL), *unprofitable* otherwise.
//! * **ARollback** — when the union no longer fits: the area data, the
//!   overlapping normal data and the update are merged and written back in
//!   the normal page-mapped manner; the AMT entry is cleared.
//!
//! Reads inside a single area are **direct** (one flash read instead of
//! two); reads exceeding an area are **merged** (area + normal pages).

use aftl_flash::{
    Allocator, FlashArray, Nanos, OobDesc, PageInfo, PageKind, PageStamps, Ppn, Result, StreamId,
};

use crate::gc::{GcReport, PageMigrator};
use crate::mapping::amt::{AcrossMapTable, AmtEntry};
use crate::mapping::pmt::NO_AIDX;
use crate::obs::{SchemeEvent, SchemeEventKind};
use crate::pagemap::{scheme_core_methods, serve_page, CoreMigrator, PageMapCore};
use crate::recovery::{AreaImage, SchemeImage};
use crate::request::{split_extents, HostRequest, ReqKind};
use crate::scheme::{
    carry_range, stamp_range, FtlEnv, FtlScheme, SchemeConfig, SchemeKind, ServiceOutcome,
};

/// Modelled bytes per PMT entry (32-bit PPN + 16-bit AIdx reference):
/// gives the ~1.4× table footprint vs baseline the paper reports.
pub const PMT_ENTRY_BYTES: u64 = 6;
/// Modelled bytes per AMT entry (Off + Size + APPN).
pub const AMT_ENTRY_BYTES: u64 = 8;

/// Feature toggles for ablation studies (`repro_all ablation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcrossOptions {
    /// Merge overlapping updates into the area when the union fits in one
    /// page (§3.3.1). Off ⇒ every overlapping update rolls the area back.
    pub enable_amerge: bool,
}

impl Default for AcrossOptions {
    fn default() -> Self {
        AcrossOptions {
            enable_amerge: true,
        }
    }
}

/// The proposed scheme: the page-mapped core plus the AMT overlay.
#[derive(Clone)]
pub struct AcrossFtl {
    pub(crate) core: PageMapCore,
    options: AcrossOptions,
    amt: AcrossMapTable,
    /// Composite-operation log for the observability layer (`None` = off).
    event_log: Option<Vec<SchemeEvent>>,
    amt_entries_per_tpage: u64,
    /// First AMT translation-page id: the one after the PMT's last, so the
    /// scheme's tpids are one dense range from 0.
    amt_tpid_base: u64,
    // Reusable read-path scratch: per-LPN resolution times, the linked
    // areas, the overlapping ones with their AMT resolution times, and the
    // gap subtraction's two buffers. Capacity persists across requests so
    // steady-state reads do not allocate.
    scratch_lpn_ready: Vec<Nanos>,
    scratch_aidxs: Vec<u32>,
    scratch_areas: Vec<(AmtEntry, Nanos)>,
    scratch_gaps: Vec<(u64, u64)>,
    scratch_gaps_next: Vec<(u64, u64)>,
}

impl AcrossFtl {
    /// Construct with the paper's default options.
    pub fn new(geometry: &aftl_flash::Geometry, cfg: SchemeConfig) -> Self {
        Self::with_options(geometry, cfg, AcrossOptions::default())
    }

    /// Construct with ablation toggles.
    pub fn with_options(
        geometry: &aftl_flash::Geometry,
        cfg: SchemeConfig,
        options: AcrossOptions,
    ) -> Self {
        let core = PageMapCore::new(geometry, cfg, PMT_ENTRY_BYTES);
        AcrossFtl {
            amt_tpid_base: core.tpid(cfg.logical_pages - 1) + 1,
            core,
            options,
            amt: AcrossMapTable::new(),
            event_log: None,
            amt_entries_per_tpage: u64::from(geometry.page_bytes) / AMT_ENTRY_BYTES,
            scratch_lpn_ready: Vec::new(),
            scratch_aidxs: Vec::new(),
            scratch_areas: Vec::new(),
            scratch_gaps: Vec::new(),
            scratch_gaps_next: Vec::new(),
        }
    }

    /// Take `old`'s ablation toggles: a scheme rebuilt after a power cut
    /// keeps its predecessor's, which no image holds.
    pub fn keep_options(&mut self, old: &AcrossFtl) {
        self.options = old.options;
    }

    /// Construct an Across-FTL preloaded with a recovered mapping (see
    /// [`crate::recovery`]): page-mapped entries plus live re-aligned
    /// areas, each reinstalled at its pre-crash `AIdx` so the OOB tags on
    /// surviving `AcrossData` pages still resolve. The map cache starts
    /// cold.
    pub fn from_image(
        geometry: &aftl_flash::Geometry,
        cfg: SchemeConfig,
        image: &SchemeImage,
    ) -> Self {
        let spp = geometry.page_bytes / geometry.sector_bytes;
        let mut ftl = Self::new(geometry, cfg);
        image.assert_holds(SchemeKind::Across, false, true);
        ftl.core.load_pages(geometry, &image.pages);
        for a in &image.areas {
            let entry = AmtEntry {
                start_sector: a.start_sector,
                size_sectors: a.size_sectors,
                appn: a.appn,
            };
            // The area must land back at its pre-crash AIdx: the on-flash
            // page's OOB tag is that index, and GC resolves the tag
            // against the rebuilt table.
            ftl.amt.insert_at(a.aidx, entry);
            ftl.set_links(a.aidx, &entry, spp, a.aidx);
        }
        ftl.sync_area_gauges();
        ftl
    }

    /// Shared GC driver for the foreground (`idle_budget` = `None`) and
    /// idle (`Some(max_pages)`) paths.
    fn run_gc(&mut self, env: &mut FtlEnv<'_>, idle_budget: Option<u64>) -> Result<GcReport> {
        let (gc, core) = self.core.gc_parts();
        let mut migrator = AreaMigrator {
            core,
            amt: &mut self.amt,
        };
        gc.collect(env.array, env.alloc, env.now_ns, idle_budget, &mut migrator)
    }

    // --- mapping-cache plumbing -------------------------------------------

    fn amt_access(&mut self, env: &mut FtlEnv<'_>, aidx: u32, dirty: bool) -> Result<Nanos> {
        // AMT pages take the tpids after the PMT's; their footprint is
        // reported from the AMT's slot storage, not the touched set.
        let tpid = self.amt_tpid(aidx);
        self.core.resolve(env, tpid, 1, dirty)
    }

    /// Translation-page id of the AMT page holding entry `aidx`.
    #[inline]
    fn amt_tpid(&self, aidx: u32) -> u64 {
        self.amt_tpid_base + u64::from(aidx) / self.amt_entries_per_tpage
    }

    fn sync_area_gauges(&mut self) {
        self.core.counters.live_across_areas = self.amt.live();
        self.core.counters.total_across_areas = self.amt.created_total();
    }

    #[inline]
    fn log_event(&mut self, kind: SchemeEventKind, start_ns: Nanos, done_ns: Nanos) {
        if let Some(log) = &mut self.event_log {
            log.push(SchemeEvent {
                kind,
                latency_ns: done_ns.saturating_sub(start_ns),
            });
        }
    }

    /// Distinct areas linked from the LPNs in `[first, last]`, into `out`.
    fn areas_touching(&self, first_lpn: u64, last_lpn: u64, out: &mut Vec<u32>) {
        out.clear();
        for lpn in first_lpn..=last_lpn {
            if !self.core.pmt.in_range(lpn) {
                continue;
            }
            let aidx = self.core.pmt.get(lpn).aidx;
            if aidx != NO_AIDX && !out.contains(&aidx) {
                out.push(aidx);
            }
        }
    }

    /// Set the `AIdx` links of the LPNs area `aidx` spans to `to`: `aidx`
    /// itself to link them, [`NO_AIDX`] to clear the ones still linked.
    fn set_links(&mut self, aidx: u32, entry: &AmtEntry, spp: u32, to: u32) {
        for lpn in entry.first_lpn(spp)..=entry.last_lpn(spp) {
            if self.core.pmt.in_range(lpn) && (to == aidx || self.core.pmt.get(lpn).aidx == aidx) {
                self.core.pmt.set_aidx(lpn, to);
            }
        }
    }

    /// Program area `aidx`'s page for `size_sectors` sectors from
    /// `start_sector`, carrying `stamps`, then point the AMT entry at it
    /// and link the LPNs it spans. Returns when the program completed.
    #[allow(clippy::too_many_arguments)]
    fn program_area(
        &mut self,
        env: &mut FtlEnv<'_>,
        aidx: u32,
        start_sector: u64,
        size_sectors: u32,
        stamps: Option<PageStamps>,
        ready: Nanos,
    ) -> Result<Nanos> {
        let (appn, w) = env.array.program_relocating(
            env.alloc,
            None,
            StreamId::Across,
            PageKind::AcrossData,
            u64::from(aidx),
            env.sectors_to_bytes(size_sectors),
            env.now_ns,
            ready,
        )?;
        let oob = OobDesc::Area {
            start_sector,
            size_sectors,
        };
        env.array.annotate_oob(appn, oob);
        if let Some(stamps) = stamps {
            env.array.record_content(appn, stamps);
        }
        let entry = AmtEntry {
            start_sector,
            size_sectors,
            appn,
        };
        self.amt.update(aidx, entry);
        self.set_links(aidx, &entry, env.spp(), aidx);
        Ok(w.complete_ns)
    }

    /// Retire area `aidx` (entry `a`): journal a kill record (tag + current
    /// page seq) so recovery never resurrects it — neither this page nor
    /// any older same-tag page that outlives it — then drop its page, its
    /// links and its AMT entry.
    fn retire_area(&mut self, env: &mut FtlEnv<'_>, aidx: u32, a: &AmtEntry) -> Result<()> {
        let killed_seq = env.array.page_info(a.appn)?.seq;
        env.array.oob_group_kill(u64::from(aidx), killed_seq);
        env.array.invalidate(a.appn)?;
        self.set_links(aidx, a, env.spp(), NO_AIDX);
        self.amt.remove(aidx);
        self.sync_area_gauges();
        Ok(())
    }

    /// Read an area's old copy for a merge or rollback, counting a loss.
    /// Its stamps are indexed from the area's first sector.
    fn read_area(
        &mut self,
        env: &mut FtlEnv<'_>,
        a: &AmtEntry,
        ready: Nanos,
    ) -> Result<(Nanos, Option<PageStamps>)> {
        let bytes = env.sectors_to_bytes(a.size_sectors);
        let (read, stamps) = env.array.read_old_copy(a.appn, bytes, env.now_ns, ready)?;
        if read.is_lost() {
            self.core.counters.lost_pages += 1;
        }
        Ok((read.complete_ns(), stamps))
    }

    // --- write paths --------------------------------------------------------

    /// Direct write: create a fresh across-page area for `req`
    /// (Figure 6 left; both spanned LPNs must be link-free).
    fn direct_write(
        &mut self,
        env: &mut FtlEnv<'_>,
        req: &HostRequest,
        ready: Nanos,
    ) -> Result<Nanos> {
        let spp = env.spp();
        let entry = AmtEntry {
            start_sector: req.sector,
            size_sectors: req.sectors,
            appn: Ppn::INVALID,
        };
        let aidx = self.amt.insert(entry);
        let amt_ready = self.amt_access(env, aidx, true)?;
        let ready = ready.max(amt_ready);

        let stamps = env.array.tracks_content().then(|| {
            let mut stamps = vec![None; spp as usize];
            let (s, e) = (req.sector, req.end_sector());
            stamp_range(&mut stamps, s, s, e, req.version);
            stamps.into_boxed_slice()
        });
        let done = self.program_area(env, aidx, req.sector, req.sectors, stamps, ready)?;
        self.core.counters.across_direct_writes += 1;
        self.sync_area_gauges();
        Ok(done)
    }

    /// AMerge: merge `req` into area `aidx`; the union must fit in one page
    /// and stay contiguous (checked by the caller). Figure 6 middle.
    fn amerge(
        &mut self,
        env: &mut FtlEnv<'_>,
        aidx: u32,
        req: &HostRequest,
        profitable: bool,
        ready: Nanos,
    ) -> Result<Nanos> {
        let spp = env.spp();
        let a = self.amt.get(aidx).expect("amerge on live area");
        let amt_ready = self.amt_access(env, aidx, true)?;
        let ready = ready.max(amt_ready);

        let union_start = a.start_sector.min(req.sector);
        let union_end = a.end_sector().max(req.end_sector());
        let union_size = (union_end - union_start) as u32;
        debug_assert!(union_size <= spp, "caller must ensure the union fits");

        // Merge needs the old area's data only when the update does not
        // fully re-cover it — re-writing the same range (the common hot-
        // update case) skips the read, and the update then overwrites every
        // old stamp. A lost old area carries its loss stamps into the
        // merged page, so later reads report the acknowledged loss instead
        // of stale data.
        let needs_read = !(req.sector <= a.start_sector && a.end_sector() <= req.end_sector());
        let (data_ready, old) = if needs_read {
            self.read_area(env, &a, ready)?
        } else {
            (ready, None)
        };
        let stamps = env.array.tracks_content().then(|| {
            let mut stamps = vec![None; spp as usize];
            if let Some(old) = old {
                let (start, end) = (a.start_sector, a.end_sector());
                carry_range(&mut stamps, union_start, &old, start, start, end);
            }
            let (s, e) = (req.sector, req.end_sector());
            stamp_range(&mut stamps, union_start, s, e, req.version);
            stamps.into_boxed_slice()
        });
        // The union spans the same two LPNs (it contains the old area's
        // page boundary and fits in one page).
        let done = self.program_area(env, aidx, union_start, union_size, stamps, data_ready)?;
        env.array.invalidate(a.appn)?;
        if profitable {
            self.core.counters.profitable_amerge += 1;
        } else {
            self.core.counters.unprofitable_amerge += 1;
        }
        self.log_event(SchemeEventKind::AMerge, env.now_ns, done);
        self.sync_area_gauges();
        Ok(done)
    }

    /// ARollback: fold area `aidx` back into normally mapped pages,
    /// optionally merging `update` (the triggering request's data) in the
    /// same pass (Figure 6 right). Clears the AMT entry and `AIdx` links.
    fn arollback(
        &mut self,
        env: &mut FtlEnv<'_>,
        aidx: u32,
        update: Option<&HostRequest>,
        ready: Nanos,
    ) -> Result<Nanos> {
        let spp = env.spp();
        let a = self.amt.get(aidx).expect("arollback on live area");
        let amt_ready = self.amt_access(env, aidx, true)?;
        let ready = ready.max(amt_ready);

        // Read the across-page area once.
        let (area_ready, area_stamps) = self.read_area(env, &a, ready)?;
        let mut done = area_ready;

        // The range to re-write normally: the area plus the update.
        let (fold_start, fold_end) = match update {
            Some(u) => (
                a.start_sector.min(u.sector),
                a.end_sector().max(u.end_sector()),
            ),
            None => (a.start_sector, a.end_sector()),
        };

        // Unlink the area *before* programming so the extent program's
        // RMW path sees consistent state; the physical page stays readable
        // until invalidated below.
        self.set_links(aidx, &a, spp, NO_AIDX);

        for extent in split_extents(fold_start, fold_end, spp) {
            let ext_ready = self.core.map_access(env, extent.lpn, true)?.max(area_ready);
            // Merge stamps: old normal content (if RMW), then area data,
            // then the update — newest last.
            let stamps_override = if env.array.tracks_content() {
                let old_ppn = self.core.pmt.get(extent.lpn).ppn;
                let old = old_ppn
                    .is_valid()
                    .then(|| env.array.content_of(old_ppn))
                    .flatten();
                let mut stamps = old.map_or_else(|| vec![None; spp as usize], <[_]>::to_vec);
                stamps.resize(spp as usize, None);
                let page_start = extent.lpn * u64::from(spp);
                let page_end = page_start + u64::from(spp);
                if let Some(area) = &area_stamps {
                    let (start, end) =
                        (a.start_sector.max(page_start), a.end_sector().min(page_end));
                    carry_range(&mut stamps, page_start, area, a.start_sector, start, end);
                }
                if let Some(u) = update {
                    let (start, end) = (u.sector.max(page_start), u.end_sector().min(page_end));
                    stamp_range(&mut stamps, page_start, start, end, u.version);
                }
                Some(stamps.into_boxed_slice())
            } else {
                None
            };
            let version = update.map_or(0, |u| u.version);
            let w = self
                .core
                .program_extent(env, &extent, version, ext_ready, stamps_override)?;
            done = done.max(w);
        }

        // The fold-back deliberately retires the area.
        self.retire_area(env, aidx, &a)?;
        self.core.counters.arollbacks += 1;
        self.log_event(SchemeEventKind::ARollback, env.now_ns, done);
        Ok(done)
    }

    /// Drop an area whose entire range is superseded by `req` (no data
    /// movement needed).
    fn drop_area(&mut self, env: &mut FtlEnv<'_>, aidx: u32) -> Result<Nanos> {
        let a = self.amt.get(aidx).expect("drop of live area");
        let ready = self.amt_access(env, aidx, true)?;
        self.retire_area(env, aidx, &a)?;
        Ok(ready)
    }

    /// Service an across-page write (§3.3.1).
    fn across_write(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<Nanos> {
        let spp = env.spp();
        let (lpn1, lpn2) = (req.first_lpn(spp), req.last_lpn(spp));
        let mut ready = self.core.map_access(env, lpn1, true)?;
        ready = ready.max(self.core.map_access(env, lpn2, true)?);

        let mut areas = Vec::new();
        self.areas_touching(lpn1, lpn2, &mut areas);
        match areas.as_slice() {
            [] => self.direct_write(env, req, ready),
            [aidx] => {
                let aidx = *aidx;
                let a = self.amt.get(aidx).expect("linked area is live");
                if a.overlaps_or_abuts(req.sector, req.end_sector()) {
                    let union_start = a.start_sector.min(req.sector);
                    let union_end = a.end_sector().max(req.end_sector());
                    if self.options.enable_amerge && (union_end - union_start) <= u64::from(spp) {
                        self.amerge(env, aidx, req, true, ready)
                    } else {
                        // Figure 6 right: fold everything back to normal
                        // pages, update included.
                        self.arollback(env, aidx, Some(req), ready)
                    }
                } else {
                    // Shares an LPN but not a mergeable range: the single
                    // AIdx slot forces the old area out first.
                    self.core.counters.area_conflicts += 1;
                    let t = self.arollback(env, aidx, None, ready)?;
                    self.direct_write(env, req, t)
                }
            }
            _ => {
                // Two distinct areas touched: they necessarily span two
                // different page pairs (each LPN carries one AIdx), so a
                // union with the request would cover three pages — always
                // larger than one page. Roll both back and re-align fresh.
                let t1 = self.arollback(env, areas[0], None, ready)?;
                let t2 = self.arollback(env, areas[1], None, t1)?;
                self.core.counters.area_conflicts += 1;
                self.direct_write(env, req, t2)
            }
        }
    }

    /// Service a non-across write: reconcile any overlapping areas, then
    /// program the extents normally.
    fn normal_write(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<Nanos> {
        let spp = env.spp();
        let (s, e) = (req.sector, req.end_sector());
        // Area reconciliation must complete before the extents overwrite
        // the overlapping ranges; the extents themselves then fan out in
        // parallel exactly like the baseline's sub-requests.
        let mut reconcile_done = env.now_ns;

        let mut areas = Vec::new();
        self.areas_touching(req.first_lpn(spp), req.last_lpn(spp), &mut areas);
        for aidx in areas {
            let a = self.amt.get(aidx).expect("linked area is live");
            if s <= a.start_sector && a.end_sector() <= e {
                // Fully superseded: drop without movement.
                let t = self.drop_area(env, aidx)?;
                reconcile_done = reconcile_done.max(t);
            } else if a.overlaps(s, e) {
                let union_start = a.start_sector.min(s);
                let union_end = a.end_sector().max(e);
                if self.options.enable_amerge && union_end - union_start <= u64::from(spp) {
                    // Small overlapping update: unprofitable AMerge — this
                    // also fully services the request's data.
                    let t = self.amerge(env, aidx, req, false, env.now_ns)?;
                    return Ok(reconcile_done.max(t));
                }
                // Large update partially overlapping the area: fold it back
                // (the request's own data is written below).
                let t = self.arollback(env, aidx, None, env.now_ns)?;
                reconcile_done = reconcile_done.max(t);
            }
            // Areas sharing an LPN without range overlap are untouched: the
            // normal page write below does not disturb their sectors.
        }

        let mut done = reconcile_done;
        for extent in req.extents(spp) {
            // Each extent programs at its own mapping-ready time (maxed
            // with area reconciliation) in both engine modes, like the
            // baseline's; the engine tallies issues that land below the
            // batch's serial watermark as out-of-order.
            let ready = self.core.map_access(env, extent.lpn, true)?;
            let own = ready.max(reconcile_done);
            let at = self.core.engine.issue_at(own, own);
            let w = self
                .core
                .program_extent(env, &extent, req.version, at, None)?;
            done = done.max(w);
        }
        Ok(done)
    }
}

/// Across-FTL's [`PageMigrator`]: `Data` and `Map` pages are the core's;
/// an area page is copied one-to-one like them and its AMT entry follows.
struct AreaMigrator<'a> {
    core: CoreMigrator<'a>,
    amt: &'a mut AcrossMapTable,
}

impl PageMigrator for AreaMigrator<'_> {
    fn prefetch(&self, pages: &[(Ppn, PageInfo)]) {
        self.core.prefetch(pages);
        for (_, info) in pages {
            if info.kind == PageKind::AcrossData {
                std::hint::black_box(self.amt.get(info.tag as u32));
            }
        }
    }

    fn migrate(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        old: Ppn,
        info: &PageInfo,
        report: &mut GcReport,
    ) -> Result<Option<u64>> {
        if info.kind != PageKind::AcrossData {
            return self.core.migrate(array, alloc, now, old, info, report);
        }
        let amt = &mut *self.amt;
        let remap = |array: &mut FlashArray, old: Ppn, new: Ppn, info: &PageInfo| {
            let aidx = info.tag as u32;
            let mut e = amt.get(aidx).expect("GC migrated a dead area page");
            debug_assert_eq!(e.appn, old);
            e.appn = new;
            amt.update(aidx, e);
            array.annotate_oob(
                new,
                OobDesc::Area {
                    start_sector: e.start_sector,
                    size_sectors: e.size_sectors,
                },
            );
        };
        self.core
            .copier
            .copy(array, alloc, now, old, info, report, remap)
    }
}

impl FtlScheme for AcrossFtl {
    fn write(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Write);
        self.core.ensure_pmt();
        self.core.counters.host_writes += 1;
        self.core.engine.begin_batch(env.now_ns);
        let spp = env.spp();
        let done = if req.is_across_page(spp) {
            self.across_write(env, req)?
        } else {
            self.normal_write(env, req)?
        };
        Ok(ServiceOutcome::at(done))
    }

    fn read(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Read);
        self.core.ensure_pmt();
        self.core.counters.host_reads += 1;
        self.core.engine.begin_batch(env.now_ns);
        let spp = env.spp();
        let (s, e) = (req.sector, req.end_sector());
        let (lpn1, lpn2) = (req.first_lpn(spp), req.last_lpn(spp));
        let mut outcome = ServiceOutcome::default();

        // Mapping lookups. Per-LPN ready times are kept so the engine can
        // issue each page read at its own resolution time rather than the
        // request-wide maximum.
        let mut ready = env.now_ns;
        let mut lpn_ready = std::mem::take(&mut self.scratch_lpn_ready);
        lpn_ready.clear();
        for lpn in lpn1..=lpn2 {
            let t = self.core.map_access(env, lpn, false)?;
            lpn_ready.push(t);
            ready = ready.max(t);
        }
        // The overlapping areas, each with its AMT resolution time.
        let mut linked = std::mem::take(&mut self.scratch_aidxs);
        self.areas_touching(lpn1, lpn2, &mut linked);
        let mut areas = std::mem::take(&mut self.scratch_areas);
        areas.clear();
        for &aidx in &linked {
            let a = self.amt.get(aidx).expect("linked area is live");
            if a.overlaps(s, e) {
                let t = self.amt_access(env, aidx, false)?;
                areas.push((a, t));
                ready = ready.max(t);
            }
        }
        outcome.merge_time(ready);

        // Serve the area-covered sub-ranges from the across pages.
        let mut flash_reads = 0u64;
        let mut any_lost = false;
        for &(a, area_ready) in &areas {
            let ov_start = a.start_sector.max(s);
            let ov_end = a.end_sector().min(e);
            // The area read depends on its AMT resolution and the PMT
            // lookups of the LPNs it bridges — not on resolutions for
            // unrelated parts of the request.
            let mut own = area_ready;
            for lpn in a.first_lpn(spp).max(lpn1)..=a.last_lpn(spp).min(lpn2) {
                own = own.max(lpn_ready[(lpn - lpn1) as usize]);
            }
            let at = self.core.engine.issue_at(own, ready);
            let range = (
                (ov_start - a.start_sector) as u32,
                ov_start,
                (ov_end - ov_start) as u32,
            );
            flash_reads += 1;
            any_lost |= serve_page(env, a.appn, [range], at, &mut outcome)?;
        }

        // Serve the rest from normally mapped pages, one read per LPN.
        let mut gaps = std::mem::take(&mut self.scratch_gaps);
        let mut next = std::mem::take(&mut self.scratch_gaps_next);
        for extent in req.extents(spp) {
            // Subtract area coverage from this extent.
            let ext_s = extent.start_sector(spp);
            let ext_e = extent.end_sector(spp);
            gaps.clear();
            gaps.push((ext_s, ext_e));
            // What the read depends on: this extent's own PMT resolution,
            // plus the AMT resolutions of any areas clipping its range (the
            // gap boundaries come from those entries).
            let mut dep = lpn_ready[(extent.lpn - lpn1) as usize];
            for &(a, area_ready) in &areas {
                if a.overlaps(ext_s, ext_e) {
                    dep = dep.max(area_ready);
                }
                next.clear();
                for &(gs, ge) in &gaps {
                    if a.end_sector() <= gs || ge <= a.start_sector {
                        next.push((gs, ge));
                        continue;
                    }
                    if gs < a.start_sector {
                        next.push((gs, a.start_sector));
                    }
                    if a.end_sector() < ge {
                        next.push((a.end_sector(), ge));
                    }
                }
                std::mem::swap(&mut gaps, &mut next);
            }
            if gaps.is_empty() {
                continue;
            }
            let ppn = self.core.pmt.get(extent.lpn).ppn;
            let at = if ppn.is_valid() {
                flash_reads += 1;
                self.core.engine.issue_at(dep, ready)
            } else {
                dep
            };
            let page_start = extent.lpn * u64::from(spp);
            let ranges = gaps
                .iter()
                .map(|&(gs, ge)| ((gs - page_start) as u32, gs, (ge - gs) as u32));
            any_lost |= serve_page(env, ppn, ranges, at, &mut outcome)?;
        }
        self.scratch_gaps = gaps;
        self.scratch_gaps_next = next;

        if any_lost {
            self.core.counters.host_unrecoverable_reads += 1;
        }

        // Classification (§3.3.2 / §4.2.1).
        if !areas.is_empty() {
            let sole_area_covers = areas.len() == 1 && areas[0].0.contains(s, e);
            if sole_area_covers {
                self.core.counters.across_direct_reads += 1;
            } else {
                self.core.counters.merged_reads += 1;
                let conventional = lpn2 - lpn1 + 1;
                self.core.counters.merged_read_extra_flash_reads +=
                    flash_reads.saturating_sub(conventional);
            }
        }
        self.scratch_lpn_ready = lpn_ready;
        self.scratch_aidxs = linked;
        self.scratch_areas = areas;
        Ok(outcome)
    }

    scheme_core_methods!();

    fn mapping_table_bytes(&self) -> u64 {
        // PMT translation pages touched + the AMT slot storage (allocated in
        // page units).
        let page_bytes = u64::from(self.core.page_bytes);
        let amt_bytes = self.amt.capacity_slots() as u64 * AMT_ENTRY_BYTES;
        self.core.table_bytes() + amt_bytes.div_ceil(page_bytes) * page_bytes
    }

    fn set_event_log(&mut self, enabled: bool) {
        self.event_log = if enabled { Some(Vec::new()) } else { None };
    }

    fn drain_events(&mut self, into: &mut Vec<SchemeEvent>) {
        if let Some(log) = &mut self.event_log {
            into.append(log);
        }
    }

    fn capture_image(&self) -> SchemeImage {
        let areas = self
            .amt
            .iter_live()
            .map(|(aidx, e)| AreaImage {
                aidx,
                start_sector: e.start_sector,
                size_sectors: e.size_sectors,
                appn: e.appn,
            })
            .collect();
        SchemeImage {
            areas,
            ..self.core.image()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_flash::{Allocator, FlashArray, Geometry, GeometryBuilder, TimingSpec};

    fn setup() -> (FlashArray, Allocator, AcrossFtl) {
        let g = Geometry::tiny();
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
        let ftl = AcrossFtl::new(&g, cfg);
        (array, alloc, ftl)
    }

    fn env<'a>(array: &'a mut FlashArray, alloc: &'a mut Allocator) -> FtlEnv<'a> {
        FtlEnv {
            array,
            alloc,
            now_ns: 0,
        }
    }

    fn w(
        ftl: &mut AcrossFtl,
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
        let mut e = env(array, alloc);
        ftl.write(&mut e, &req).unwrap();
    }

    fn read_versions(
        ftl: &mut AcrossFtl,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        sector: u64,
        sectors: u32,
    ) -> Vec<(u64, u64)> {
        let req = HostRequest::read(0, sector, sectors);
        let mut e = env(array, alloc);
        let out = ftl.read(&mut e, &req).unwrap();
        let mut v: Vec<(u64, u64)> = out.served.iter().map(|s| (s.sector, s.version)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn map_page_tags_fit_32_bits() {
        // On the 16 GiB device at every page size, the widest translation
        // -page tags Across-FTL (AMT pages, over every possible AIdx) and
        // MRSM (tree leaves) program round-trip through the array's 32-bit
        // OOB tag; a wider tag panics and a free page reads `u64::MAX`.
        for page_bytes in [4096u32, 8192, 16384] {
            let g = GeometryBuilder::new()
                .channels(8)
                .chips_per_channel(2)
                .dies_per_chip(2)
                .planes_per_die(2)
                .blocks_per_plane(((1u64 << 34) / (64 * 64 * u64::from(page_bytes))) as u32)
                .pages_per_block(64)
                .page_bytes(page_bytes)
                .build()
                .unwrap();
            assert_eq!(g.capacity_bytes(), 16 << 30);
            let cfg = SchemeConfig::for_geometry(&g);
            let last_lpn = cfg.logical_pages - 1;
            let across = AcrossFtl::new(&g, cfg);
            assert!(
                across.core.tpid(last_lpn) < across.amt_tpid(0),
                "PMT and AMT page ids overlap"
            );
            assert_eq!(
                across.amt_tpid(0),
                across.core.tpid(last_lpn) + 1,
                "the first AMT page id is the PMT's translation-page count"
            );
            let tags = [
                across.amt_tpid(0),
                across.amt_tpid(NO_AIDX - 1),
                crate::mrsm::leaf_tpid(last_lpn),
            ];
            let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
            for (i, &tag) in tags.iter().enumerate() {
                let ppn = Ppn(i as u64);
                array
                    .program(ppn, PageKind::Map, tag, page_bytes, 0, 0)
                    .unwrap();
                let info = array.page_info(ppn).unwrap();
                assert_eq!((info.kind, info.tag), (PageKind::Map, tag));
            }
            let free = Ppn(tags.len() as u64);
            assert_eq!(array.page_info(free).unwrap().tag, u64::MAX);
            let wide = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                array.program(free, PageKind::Map, u64::from(u32::MAX), page_bytes, 0, 0)
            }));
            assert!(wide.is_err(), "a tag of u32::MAX must not be stored");
        }
    }

    #[test]
    fn across_write_uses_single_program() {
        let (mut array, mut alloc, mut ftl) = setup();
        // Sectors 4..12 span LPN 0/1 (spp 8) — across-page.
        w(&mut ftl, &mut array, &mut alloc, 4, 8, 1);
        assert_eq!(array.stats().programs.across, 1, "one across-page program");
        assert_eq!(array.stats().programs.data, 0, "no normal programs");
        assert_eq!(ftl.counters().across_direct_writes, 1);
        assert_eq!(ftl.counters().live_across_areas, 1);
    }

    #[test]
    fn direct_read_hits_one_page() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 4, 8, 1);
        let reads_before = array.stats().reads.across;
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 5, 4);
        assert_eq!(array.stats().reads.across, reads_before + 1);
        assert_eq!(array.stats().reads.data, 0);
        assert!(v.iter().all(|&(_, ver)| ver == 1));
        assert_eq!(ftl.counters().across_direct_reads, 1);
    }

    #[test]
    fn amerge_grows_area_and_preserves_data() {
        let (mut array, mut alloc, mut ftl) = setup();
        // Area sectors 4..10 (6 sectors), like the paper's write(1028K, 6K).
        w(&mut ftl, &mut array, &mut alloc, 4, 6, 1);
        // Update sectors 6..12 (across, overlapping): union 4..12 = 8 ≤ spp.
        w(&mut ftl, &mut array, &mut alloc, 6, 6, 2);
        assert_eq!(ftl.counters().profitable_amerge, 1);
        assert_eq!(ftl.counters().live_across_areas, 1, "same area, grown");
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 4, 8);
        let versions: Vec<u64> = v.iter().map(|&(_, ver)| ver).collect();
        assert_eq!(versions, vec![1, 1, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn arollback_when_union_exceeds_page() {
        let (mut array, mut alloc, mut ftl) = setup();
        // Normal data on LPN 0 and 1 first.
        w(&mut ftl, &mut array, &mut alloc, 0, 8, 1);
        w(&mut ftl, &mut array, &mut alloc, 8, 8, 2);
        // Across area 6..12.
        w(&mut ftl, &mut array, &mut alloc, 6, 6, 3);
        // Across update 2..10: union 2..12 = 10 > 8 → rollback (paper Fig 6).
        w(&mut ftl, &mut array, &mut alloc, 2, 8, 4);
        assert_eq!(ftl.counters().arollbacks, 1);
        assert_eq!(ftl.counters().live_across_areas, 0);
        // Full range readback: v1 sectors 0-1, v4 2-9, v3 10-11, v2 12-15.
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 0, 16);
        let versions: Vec<u64> = v.iter().map(|&(_, ver)| ver).collect();
        assert_eq!(
            versions,
            vec![1, 1, 4, 4, 4, 4, 4, 4, 4, 4, 3, 3, 2, 2, 2, 2]
        );
    }

    #[test]
    fn merged_read_combines_area_and_normal() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 8, 8, 1); // LPN 1 normal
        w(&mut ftl, &mut array, &mut alloc, 4, 6, 2); // area 4..10
                                                      // Read 4..14: area (4..10) + LPN 1 page (10..14).
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 4, 10);
        let versions: Vec<u64> = v.iter().map(|&(_, ver)| ver).collect();
        assert_eq!(versions, vec![2, 2, 2, 2, 2, 2, 1, 1, 1, 1]);
        assert_eq!(ftl.counters().merged_reads, 1);
    }

    #[test]
    fn full_overwrite_drops_area() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 4, 8, 1); // area 4..12
                                                      // Aligned 2-page write covering everything.
        w(&mut ftl, &mut array, &mut alloc, 0, 16, 2);
        assert_eq!(ftl.counters().live_across_areas, 0);
        assert_eq!(ftl.counters().arollbacks, 0, "drop needs no rollback");
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 0, 16);
        assert!(v.iter().all(|&(_, ver)| ver == 2));
    }

    #[test]
    fn unprofitable_amerge_from_interior_update() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 4, 8, 1); // area 4..12
                                                      // 2-sector update inside the area (not across-page: 5..7 ⊂ LPN 0).
        w(&mut ftl, &mut array, &mut alloc, 5, 2, 2);
        assert_eq!(ftl.counters().unprofitable_amerge, 1);
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 4, 8);
        let versions: Vec<u64> = v.iter().map(|&(_, ver)| ver).collect();
        assert_eq!(versions, vec![1, 2, 2, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn large_write_partially_overlapping_area_rolls_back() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 6, 6, 1); // area 6..12
                                                      // 3-page write 8..32 overlaps the area's tail only.
        w(&mut ftl, &mut array, &mut alloc, 8, 24, 2);
        assert_eq!(ftl.counters().arollbacks, 1);
        assert_eq!(ftl.counters().live_across_areas, 0);
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 6, 26);
        let versions: Vec<u64> = v.iter().map(|&(_, ver)| ver).collect();
        let mut expect = vec![1, 1];
        expect.extend(std::iter::repeat_n(2, 24));
        assert_eq!(versions, expect);
    }

    #[test]
    fn area_conflict_on_shared_lpn_resolved() {
        let (mut array, mut alloc, mut ftl) = setup();
        // Area A: sectors 6..10 (LPNs 0,1).
        w(&mut ftl, &mut array, &mut alloc, 6, 4, 1);
        // Area B: sectors 14..18 (LPNs 1,2) — shares LPN 1, disjoint range.
        w(&mut ftl, &mut array, &mut alloc, 14, 4, 2);
        assert_eq!(ftl.counters().area_conflicts, 1);
        // Both ranges still correct.
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 6, 12);
        let versions: Vec<u64> = v.iter().map(|&(_, ver)| ver).collect();
        assert_eq!(versions, vec![1, 1, 1, 1, 0, 0, 0, 0, 2, 2, 2, 2]);
    }

    #[test]
    fn gc_migrates_across_areas_correctly() {
        let (mut array, mut alloc, mut ftl) = setup();
        // Persistent across area.
        w(&mut ftl, &mut array, &mut alloc, 4, 8, 999);
        // Hammer other LPNs until GC runs repeatedly.
        for round in 0..1200u64 {
            let lpn = 4 + (round % 16);
            w(&mut ftl, &mut array, &mut alloc, lpn * 8, 8, round);
            let mut e = env(&mut array, &mut alloc);
            ftl.maybe_gc(&mut e).unwrap();
        }
        assert!(array.stats().erases > 0);
        // The area must still serve its data after migrations.
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 4, 8);
        assert!(v.iter().all(|&(_, ver)| ver == 999), "got {v:?}");
    }

    #[test]
    fn three_page_read_with_area_in_the_middle() {
        let (mut array, mut alloc, mut ftl) = setup();
        // Normal pages on LPN 0, 1, 2; then an area bridging LPN 1/2.
        w(&mut ftl, &mut array, &mut alloc, 0, 8, 1);
        w(&mut ftl, &mut array, &mut alloc, 8, 8, 2);
        w(&mut ftl, &mut array, &mut alloc, 16, 8, 3);
        w(&mut ftl, &mut array, &mut alloc, 12, 8, 4); // area 12..20
                                                       // Read the whole 0..24 range: normal head, area middle, normal tail.
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 0, 24);
        let versions: Vec<u64> = v.iter().map(|&(_, ver)| ver).collect();
        let mut expect = vec![1; 8];
        expect.extend(vec![2; 4]);
        expect.extend(vec![4; 8]);
        expect.extend(vec![3; 4]);
        assert_eq!(versions, expect);
        assert_eq!(ftl.counters().merged_reads, 1);
    }

    #[test]
    fn abutting_update_merges_without_overlap() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 4, 6, 1); // area 4..10
                                                      // Abuts the area end exactly (10..14, across? 10..14 is inside LPN 1
                                                      // — not across; still merges as an unprofitable AMerge is NOT
                                                      // triggered since ranges only abut, not overlap → plain write).
        w(&mut ftl, &mut array, &mut alloc, 10, 4, 2);
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 4, 10);
        let versions: Vec<u64> = v.iter().map(|&(_, ver)| ver).collect();
        assert_eq!(versions, vec![1, 1, 1, 1, 1, 1, 2, 2, 2, 2]);
        // Abutting ACROSS update does merge (4..10 area + 10..16 across?
        // 10..16 within LPN 1 — use 12..20 which spans LPN 1/2 but doesn't
        // touch the area's LPN pair... instead grow from the left: 0..4
        // abuts area start but 0..4 is inside LPN 0 only).
        // The key property checked here: abutting writes never corrupt.
    }

    #[test]
    fn area_survives_unrelated_same_page_writes() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 6, 4, 1); // area 6..10 (LPN 0,1)
                                                      // A write in LPN 1's tail (12..16): shares LPN 1, no range overlap.
        w(&mut ftl, &mut array, &mut alloc, 12, 4, 2);
        assert_eq!(ftl.counters().live_across_areas, 1, "area untouched");
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 6, 10);
        let versions: Vec<u64> = v.iter().map(|&(_, ver)| ver).collect();
        assert_eq!(versions, vec![1, 1, 1, 1, 0, 0, 2, 2, 2, 2]);
    }

    #[test]
    fn repeated_same_range_updates_stay_one_area() {
        let (mut array, mut alloc, mut ftl) = setup();
        for version in 1..=20u64 {
            w(&mut ftl, &mut array, &mut alloc, 4, 8, version);
        }
        let c = ftl.counters();
        assert_eq!(c.across_direct_writes, 1);
        assert_eq!(c.profitable_amerge, 19, "every rewrite is one AMerge");
        assert_eq!(c.live_across_areas, 1);
        assert_eq!(c.arollbacks, 0);
        // One program per update: 20 across programs total.
        assert_eq!(array.stats().programs.across, 20);
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 4, 8);
        assert!(v.iter().all(|&(_, ver)| ver == 20));
    }

    #[test]
    fn unwritten_gap_inside_read_range_serves_zero() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 4, 8, 1); // area 4..12 only
                                                      // Read 0..16: sectors 0..4 and 12..16 never written.
        let v = read_versions(&mut ftl, &mut array, &mut alloc, 0, 16);
        let versions: Vec<u64> = v.iter().map(|&(_, ver)| ver).collect();
        let mut expect = vec![0; 4];
        expect.extend(vec![1; 8]);
        expect.extend(vec![0; 4]);
        assert_eq!(versions, expect);
    }

    #[test]
    fn event_log_records_amerge_and_arollback() {
        let (mut array, mut alloc, mut ftl) = setup();
        ftl.set_event_log(true);
        w(&mut ftl, &mut array, &mut alloc, 4, 6, 1); // area 4..10
        w(&mut ftl, &mut array, &mut alloc, 6, 6, 2); // AMerge: union 4..12
        w(&mut ftl, &mut array, &mut alloc, 2, 8, 3); // union 2..12 > spp → ARollback
        let mut events = Vec::new();
        ftl.drain_events(&mut events);
        let kinds: Vec<SchemeEventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![SchemeEventKind::AMerge, SchemeEventKind::ARollback]
        );
        assert!(events.iter().all(|e| e.latency_ns > 0));
        let mut again = Vec::new();
        ftl.drain_events(&mut again);
        assert!(again.is_empty(), "drain empties the log");

        ftl.set_event_log(false);
        w(&mut ftl, &mut array, &mut alloc, 20, 6, 4);
        w(&mut ftl, &mut array, &mut alloc, 22, 6, 5); // AMerge, unlogged
        ftl.drain_events(&mut again);
        assert!(again.is_empty(), "disabled log records nothing");
    }

    #[test]
    fn mapping_bytes_include_amt() {
        let (mut array, mut alloc, mut ftl) = setup();
        w(&mut ftl, &mut array, &mut alloc, 0, 8, 1);
        let without_many_areas = ftl.mapping_table_bytes();
        assert!(without_many_areas > 0);
        w(&mut ftl, &mut array, &mut alloc, 4, 8, 2);
        assert!(ftl.mapping_table_bytes() >= without_many_areas);
    }
}
