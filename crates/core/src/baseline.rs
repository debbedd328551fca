//! The conventional dynamic page-level mapping FTL (the paper's "FTL"
//! baseline).
//!
//! Requests are split into page-level sub-requests. Partial-page updates
//! pay read-modify-write; an across-page request therefore costs two page
//! programs (plus up to two RMW reads) — the overhead Figure 4 quantifies
//! and Across-FTL removes. All of it is `pagemap::PageMapCore`; this file
//! is the [`FtlScheme`] face of the core with no policy added.

use aftl_flash::Result;

use crate::gc::GcReport;
use crate::pagemap::{scheme_core_methods, PageMapCore};
use crate::recovery::SchemeImage;
use crate::request::{HostRequest, ReqKind};
use crate::scheme::{FtlEnv, FtlScheme, SchemeConfig, SchemeKind, ServiceOutcome};

/// Modelled bytes per PMT entry (a 32-bit PPN).
pub const ENTRY_BYTES: u64 = 4;

/// The baseline page-mapping FTL.
#[derive(Clone)]
pub struct BaselineFtl {
    pub(crate) core: PageMapCore,
}

impl BaselineFtl {
    /// Construct a baseline FTL for the given device geometry.
    pub fn new(env_geometry: &aftl_flash::Geometry, cfg: SchemeConfig) -> Self {
        BaselineFtl {
            core: PageMapCore::new(env_geometry, cfg, ENTRY_BYTES),
        }
    }

    /// Construct a baseline FTL preloaded with a recovered mapping (see
    /// [`crate::recovery`]); it holds whole pages only. The map cache
    /// starts cold.
    pub fn from_image(
        geometry: &aftl_flash::Geometry,
        cfg: SchemeConfig,
        image: &SchemeImage,
    ) -> Self {
        let mut ftl = Self::new(geometry, cfg);
        image.assert_holds(SchemeKind::Baseline, false, false);
        ftl.core.load_pages(geometry, &image.pages);
        ftl
    }

    fn run_gc(&mut self, env: &mut FtlEnv<'_>, idle_budget: Option<u64>) -> Result<GcReport> {
        self.core.collect(env, idle_budget)
    }
}

impl FtlScheme for BaselineFtl {
    fn write(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Write);
        self.core.ensure_pmt();
        self.core.counters.host_writes += 1;
        let mut outcome = ServiceOutcome::default();
        for extent in req.extents(env.spp()) {
            let ready = self.core.map_access(env, extent.lpn, true)?;
            let done = self
                .core
                .program_extent(env, &extent, req.version, ready, None)?;
            outcome.merge_time(done);
        }
        Ok(outcome)
    }

    fn read(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Read);
        self.core.ensure_pmt();
        self.core.counters.host_reads += 1;
        let mut outcome = ServiceOutcome::default();
        for extent in req.extents(env.spp()) {
            let ready = self.core.map_access(env, extent.lpn, false)?;
            outcome.merge_time(ready);
            let ppn = self.core.pmt.get(extent.lpn);
            self.core
                .serve_extent(env, ppn, &extent, ready, &mut outcome)?;
        }
        Ok(outcome)
    }

    scheme_core_methods!();

    fn mapping_table_bytes(&self) -> u64 {
        self.core.table_bytes()
    }

    fn capture_image(&self) -> SchemeImage {
        self.core.image()
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
