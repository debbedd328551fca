//! The conventional dynamic page-level mapping FTL (the paper's "FTL"
//! baseline).
//!
//! Requests are split into page-level sub-requests. Partial-page updates
//! pay read-modify-write; an across-page request therefore costs two page
//! programs (plus up to two RMW reads) — the overhead Figure 4 quantifies
//! and Across-FTL removes.

use aftl_flash::{FlashArray, PageInfo, PageKind, Ppn, Result};

use crate::counters::SchemeCounters;
use crate::gc::{CopyMigrator, GcConfig, GcReport, GcState};
use crate::mapping::cache::CacheStats;
use crate::mapping::engine::{MapEngine, MapEngineStats};
use crate::mapping::pmt::PageMapTable;
use crate::mapping::touched::TouchedSet;
use crate::recover::{read_with_retry, PageRead};
use crate::request::{HostRequest, ReqKind};
use crate::scheme::{
    program_normal_extent, served_from_page, served_lost, served_unwritten, FtlEnv, FtlScheme,
    SchemeConfig, SchemeKind, ServiceOutcome,
};

/// Modelled bytes per PMT entry (a 32-bit PPN).
pub const ENTRY_BYTES: u64 = 4;

/// The baseline page-mapping FTL.
pub struct BaselineFtl {
    cfg: SchemeConfig,
    gc: GcState,
    pmt: PageMapTable,
    engine: MapEngine,
    counters: SchemeCounters,
    /// Translation pages ever touched — the dynamically allocated table
    /// footprint reported in Figure 12(a).
    touched_tpages: TouchedSet,
    entries_per_tpage: u64,
    page_bytes: u32,
}

impl BaselineFtl {
    /// Construct a baseline FTL for the given device geometry.
    pub fn new(env_geometry: &aftl_flash::Geometry, cfg: SchemeConfig) -> Self {
        crate::mapping::pmt::assert_ppns_fit(env_geometry);
        let page_bytes = env_geometry.page_bytes;
        let entries_per_tpage = u64::from(page_bytes) / ENTRY_BYTES;
        let engine = MapEngine::new(cfg.cache_tpages(page_bytes), cfg.pipeline);
        BaselineFtl {
            gc: GcState::new(GcConfig {
                threshold: cfg.gc_threshold,
                hysteresis: cfg.gc_hysteresis,
                tuning: cfg.gc,
            }),
            cfg,
            pmt: PageMapTable::new(0),
            engine,
            counters: SchemeCounters::default(),
            touched_tpages: TouchedSet::new(),
            entries_per_tpage,
            page_bytes,
        }
    }

    fn ensure_pmt(&mut self) {
        if self.pmt.logical_pages() == 0 {
            self.pmt = PageMapTable::new(self.cfg.logical_pages);
        }
    }

    /// Construct a baseline FTL preloaded with a recovered mapping (see
    /// [`crate::recovery`]). The map cache starts cold.
    pub fn from_image(
        geometry: &aftl_flash::Geometry,
        cfg: SchemeConfig,
        pages: &[(u64, Ppn)],
    ) -> Self {
        let mut ftl = Self::new(geometry, cfg);
        ftl.ensure_pmt();
        for &(lpn, ppn) in pages {
            ftl.pmt.set_ppn(lpn, ppn);
        }
        ftl
    }

    #[inline]
    fn tpid(&self, lpn: u64) -> u64 {
        lpn / self.entries_per_tpage
    }

    /// One mapping consultation: a cache probe (possibly loading/flushing a
    /// translation page) plus the DRAM access accounting.
    fn map_access(&mut self, env: &mut FtlEnv<'_>, lpn: u64, dirty: bool) -> Result<u64> {
        let tpid = self.tpid(lpn);
        self.touched_tpages.insert(tpid);
        self.counters.dram_accesses += 1;
        self.engine
            .resolve(env.array, env.alloc, env.now_ns, tpid, dirty)
    }

    /// Shared GC driver for the foreground (`idle_budget` = `None`) and
    /// idle (`Some(max_pages)`) paths: same remap migrator, different
    /// trigger and budget semantics in [`GcState`].
    fn run_gc(&mut self, env: &mut FtlEnv<'_>, idle_budget: Option<u64>) -> Result<GcReport> {
        self.ensure_pmt();
        let pmt = &mut self.pmt;
        let engine = &mut self.engine;
        let counters = &mut self.counters;
        let mut migrator = CopyMigrator(
            move |_: &mut FlashArray, old: Ppn, new: Ppn, info: &PageInfo| {
                counters.dram_accesses += 1;
                match info.kind {
                    PageKind::Data => {
                        let prev = pmt.set_ppn(info.tag, new);
                        debug_assert_eq!(prev, old, "GC migrated a stale data page");
                    }
                    PageKind::Map => engine.note_migrated(info.tag, new),
                    PageKind::AcrossData => {
                        unreachable!("baseline FTL never writes across-data pages")
                    }
                }
            },
        );
        match idle_budget {
            None => self
                .gc
                .maybe_collect(env.array, env.alloc, env.now_ns, &mut migrator),
            Some(n) => self
                .gc
                .idle_collect(env.array, env.alloc, env.now_ns, n, &mut migrator),
        }
    }
}

impl FtlScheme for BaselineFtl {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Baseline
    }

    fn write(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Write);
        self.ensure_pmt();
        self.counters.host_writes += 1;
        let spp = env.spp();
        let mut outcome = ServiceOutcome::default();
        for extent in req.extents(spp) {
            let ready = self.map_access(env, extent.lpn, true)?;
            let done = program_normal_extent(
                env.array,
                env.alloc,
                &mut self.pmt,
                &mut self.counters,
                &extent,
                req.version,
                env.now_ns,
                ready,
                None,
            )?;
            outcome.merge_time(done);
        }
        Ok(outcome)
    }

    fn read(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Read);
        self.ensure_pmt();
        self.counters.host_reads += 1;
        let spp = env.spp();
        let track = env.array.tracks_content();
        let mut outcome = ServiceOutcome::default();
        for extent in req.extents(spp) {
            let ready = self.map_access(env, extent.lpn, false)?;
            outcome.merge_time(ready);
            let entry = self.pmt.get(extent.lpn);
            if entry.has_ppn() {
                let r = read_with_retry(
                    env.array,
                    entry.ppn,
                    env.sectors_to_bytes(extent.len),
                    env.now_ns,
                    ready,
                )?;
                outcome.merge_time(r.complete_ns());
                match r {
                    PageRead::Ok(_) => {
                        if track {
                            served_from_page(
                                env.array,
                                entry.ppn,
                                extent.offset,
                                extent.start_sector(spp),
                                extent.len,
                                &mut outcome.served,
                            );
                        }
                    }
                    PageRead::Lost { .. } => {
                        self.counters.host_unrecoverable_reads += 1;
                        if track {
                            served_lost(extent.start_sector(spp), extent.len, &mut outcome.served);
                        }
                    }
                }
            } else if track {
                served_unwritten(extent.start_sector(spp), extent.len, &mut outcome.served);
            }
        }
        Ok(outcome)
    }

    fn maybe_gc(&mut self, env: &mut FtlEnv<'_>) -> Result<GcReport> {
        self.run_gc(env, None)
    }

    fn idle_gc(&mut self, env: &mut FtlEnv<'_>, max_pages: u64) -> Result<GcReport> {
        self.run_gc(env, Some(max_pages))
    }

    fn counters(&self) -> &SchemeCounters {
        &self.counters
    }

    fn cache_stats(&self) -> CacheStats {
        *self.engine.cache_stats()
    }

    fn map_engine_stats(&self) -> MapEngineStats {
        *self.engine.stats()
    }

    fn mapping_table_bytes(&self) -> u64 {
        self.touched_tpages.len() * u64::from(self.page_bytes)
    }

    fn logical_pages(&self) -> u64 {
        self.cfg.logical_pages
    }

    fn capture_image(&self) -> Option<crate::recovery::SchemeImage> {
        let mut pages = Vec::new();
        for lpn in 0..self.pmt.logical_pages() {
            let entry = self.pmt.get(lpn);
            if entry.has_ppn() {
                pages.push((lpn, entry.ppn));
            }
        }
        Some(crate::recovery::SchemeImage::Baseline(pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_flash::{Allocator, FlashArray, Geometry, TimingSpec};

    fn setup() -> (FlashArray, Allocator, BaselineFtl) {
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
        let ftl = BaselineFtl::new(&g, cfg);
        (array, alloc, ftl)
    }

    #[test]
    fn across_page_write_costs_two_programs() {
        let (mut array, mut alloc, mut ftl) = setup();
        let mut env = FtlEnv {
            array: &mut array,
            alloc: &mut alloc,
            now_ns: 0,
        };
        // 8 sectors starting at sector 4: spans LPN 0 and 1 (spp = 8).
        let req = HostRequest {
            version: 1,
            ..HostRequest::write(0, 4, 8)
        };
        assert!(req.is_across_page(8));
        ftl.write(&mut env, &req).unwrap();
        assert_eq!(array.stats().programs.data, 2, "two page programs");
    }

    #[test]
    fn read_your_write_roundtrip() {
        let (mut array, mut alloc, mut ftl) = setup();
        let mut env = FtlEnv {
            array: &mut array,
            alloc: &mut alloc,
            now_ns: 0,
        };
        let w = HostRequest {
            version: 7,
            ..HostRequest::write(0, 4, 8)
        };
        ftl.write(&mut env, &w).unwrap();
        let r = HostRequest::read(0, 4, 8);
        let out = ftl.read(&mut env, &r).unwrap();
        assert_eq!(out.served.len(), 8);
        assert!(out.served.iter().all(|s| s.version == 7));
    }

    #[test]
    fn read_of_unwritten_sectors_serves_version_zero() {
        let (mut array, mut alloc, mut ftl) = setup();
        let mut env = FtlEnv {
            array: &mut array,
            alloc: &mut alloc,
            now_ns: 0,
        };
        let out = ftl.read(&mut env, &HostRequest::read(0, 100, 4)).unwrap();
        assert_eq!(out.served.len(), 4);
        assert!(out.served.iter().all(|s| s.version == 0));
        assert_eq!(array.stats().reads.data, 0, "no flash read for unmapped");
    }

    #[test]
    fn partial_update_pays_rmw() {
        let (mut array, mut alloc, mut ftl) = setup();
        let mut env = FtlEnv {
            array: &mut array,
            alloc: &mut alloc,
            now_ns: 0,
        };
        ftl.write(
            &mut env,
            &HostRequest {
                version: 1,
                ..HostRequest::write(0, 0, 8)
            },
        )
        .unwrap();
        ftl.write(
            &mut env,
            &HostRequest {
                version: 2,
                ..HostRequest::write(0, 2, 2)
            },
        )
        .unwrap();
        assert_eq!(ftl.counters().rmw_reads, 1);
        // Old version preserved outside the update.
        let out = ftl.read(&mut env, &HostRequest::read(0, 0, 8)).unwrap();
        let versions: Vec<u64> = out.served.iter().map(|s| s.version).collect();
        assert_eq!(versions, vec![1, 1, 2, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_survive() {
        let (mut array, mut alloc, mut ftl) = setup();
        // Working set of 20 LPNs overwritten until GC must run.
        for round in 0..800u64 {
            let lpn = round % 20;
            let mut env = FtlEnv {
                array: &mut array,
                alloc: &mut alloc,
                now_ns: 0,
            };
            let req = HostRequest {
                version: round + 1,
                ..HostRequest::write(0, lpn * 8, 8)
            };
            ftl.write(&mut env, &req).unwrap();
            ftl.maybe_gc(&mut env).unwrap();
        }
        assert!(array.stats().erases > 0);
        // Every LPN still reads back its newest version.
        for lpn in 0..20u64 {
            let mut env = FtlEnv {
                array: &mut array,
                alloc: &mut alloc,
                now_ns: 0,
            };
            let out = ftl
                .read(&mut env, &HostRequest::read(0, lpn * 8, 8))
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
    fn mapping_footprint_grows_with_touched_range() {
        let (mut array, mut alloc, mut ftl) = setup();
        let mut env = FtlEnv {
            array: &mut array,
            alloc: &mut alloc,
            now_ns: 0,
        };
        assert_eq!(ftl.mapping_table_bytes(), 0);
        ftl.write(&mut env, &HostRequest::write(0, 0, 8)).unwrap();
        let one = ftl.mapping_table_bytes();
        assert!(one > 0);
        // Same translation page: footprint unchanged.
        ftl.write(&mut env, &HostRequest::write(0, 8, 8)).unwrap();
        assert_eq!(ftl.mapping_table_bytes(), one);
    }
}
