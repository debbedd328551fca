//! The FTL scheme interface all four schemes implement, plus the oracle
//! stamp assembly they share (the page-mapped write/read/GC skeleton
//! itself is the crate-private `pagemap` module).

pub use aftl_flash::PrefetchStage;
use aftl_flash::{Allocator, FlashArray, Geometry, Nanos, Ppn, Result, SectorStamp, LOST_VERSION};
use serde::{Deserialize, Serialize};

use crate::counters::SchemeCounters;
use crate::gc::{GcReport, GcTuning};
use crate::learned::{LearnedConfig, LearnedStats};
use crate::mapping::cache::CacheStats;
use crate::mapping::engine::{MapEngineStats, PipelineConfig};
use crate::obs::SchemeEvent;
use crate::request::{HostRequest, PageExtent};
use crate::{AcrossFtl, BaselineFtl, LearnedFtl, MrsmFtl};

/// Which of the four schemes a device runs (for configs and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeKind {
    /// Conventional dynamic page-level mapping FTL.
    Baseline,
    /// Multi-resolution sub-page mapping comparator (Chen et al., TCAD 2020).
    Mrsm,
    /// The paper's Across-FTL: re-aligns across-page requests.
    Across,
    /// Learned piecewise-linear LPN→PPN mapping with predict-then-verify
    /// reads and PMT fallback (PR 9, beyond the paper's comparison set).
    Learned,
}

impl SchemeKind {
    /// The paper's three schemes, in the order its figures list them.
    /// The learned comparator is not part of the paper's own comparison
    /// set, so figure reproductions iterate this; experiments that want
    /// the fourth scheme use [`SchemeKind::WITH_LEARNED`].
    pub const ALL: [SchemeKind; 3] = [SchemeKind::Baseline, SchemeKind::Mrsm, SchemeKind::Across];

    /// All four schemes including the learned comparator.
    pub const WITH_LEARNED: [SchemeKind; 4] = [
        SchemeKind::Baseline,
        SchemeKind::Mrsm,
        SchemeKind::Across,
        SchemeKind::Learned,
    ];

    /// Display name used in tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Baseline => "FTL",
            SchemeKind::Mrsm => "MRSM",
            SchemeKind::Across => "Across-FTL",
            SchemeKind::Learned => "Learned-FTL",
        }
    }
}

/// Mutable view of the device an FTL operates on for one call.
pub struct FtlEnv<'a> {
    /// The NAND array (timing model, page states, optional content).
    pub array: &'a mut FlashArray,
    /// Write-point allocator handing out physical pages per stream.
    pub alloc: &'a mut Allocator,
    /// Simulation time the request was dispatched.
    pub now_ns: Nanos,
}

impl FtlEnv<'_> {
    /// The device geometry.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        self.array.geometry()
    }

    /// Sectors per page.
    #[inline]
    pub fn spp(&self) -> u32 {
        self.geometry().sectors_per_page()
    }

    /// Physical page size in bytes.
    #[inline]
    pub fn page_bytes(&self) -> u32 {
        self.geometry().page_bytes
    }

    /// Convert a sector count into a byte count.
    #[inline]
    pub fn sectors_to_bytes(&self, sectors: u32) -> u32 {
        sectors * self.geometry().sector_bytes
    }
}

/// What a read actually returned, for the correctness oracle. Only filled
/// when the flash array tracks content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedSector {
    /// Absolute logical sector number that was read.
    pub sector: u64,
    /// Write generation served; 0 for never-written sectors. `u64::MAX`
    /// flags a page whose OOB stamp disagrees with the requested sector —
    /// i.e. a mapping bug. [`crate::LOST_VERSION`] (`u64::MAX - 1`)
    /// marks data the device lost to unrecoverable read failures and
    /// *acknowledged* losing — not a bug, a modelled fault outcome.
    pub version: u64,
}

/// Result of servicing one host request.
#[derive(Debug, Clone, Default)]
pub struct ServiceOutcome {
    /// When the last sub-operation finished.
    pub complete_ns: Nanos,
    /// Per-sector provenance (reads with content tracking only).
    pub served: Vec<ServedSector>,
}

impl ServiceOutcome {
    /// An outcome that finished at `complete_ns` with no provenance.
    pub fn at(complete_ns: Nanos) -> Self {
        ServiceOutcome {
            complete_ns,
            served: Vec::new(),
        }
    }

    /// Fold in a sub-operation completion.
    #[inline]
    pub fn merge_time(&mut self, t: Nanos) {
        self.complete_ns = self.complete_ns.max(t);
    }
}

/// Static scheme sizing derived from the device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchemeConfig {
    /// Exported logical pages (physical × export fraction).
    pub logical_pages: u64,
    /// DRAM mapping-cache budget in bytes. The default equals the baseline
    /// FTL's full table so the baseline never spills (§4.2.4 and DESIGN.md).
    pub cache_bytes: u64,
    /// GC trigger threshold on the free-block fraction (Table 1: 10 %).
    pub gc_threshold: f64,
    /// GC stop hysteresis: collect until `gc_threshold + gc_hysteresis`
    /// free so the trigger doesn't chatter at the boundary.
    pub gc_hysteresis: f64,
    /// GC policy / preemption / idle / throttle knobs.
    pub gc: GcTuning,
    /// Pipelined map-engine knobs (off by default).
    pub pipeline: PipelineConfig,
    /// Learned-mapping knobs; only [`SchemeKind::Learned`] reads them.
    pub learned: LearnedConfig,
}

impl SchemeConfig {
    /// Paper-style defaults for a device: 90 % of physical pages exported,
    /// GC at 10 %. The DRAM mapping-cache budget equals the baseline FTL's
    /// table over the *aged footprint* (~45 % of the logical space holds
    /// valid data after §4.1 warm-up, at 4 B per entry): the baseline table
    /// is then fully resident, Across-FTL's ~1.4× table is ~70 % resident
    /// and MRSM's ~2.4× table ~42 % resident — the residency ratios §4.2.4
    /// reports.
    pub fn for_geometry(geometry: &Geometry) -> Self {
        let logical_pages = geometry.total_pages() * 9 / 10;
        SchemeConfig {
            logical_pages,
            // Floor at 2 MB: even small controllers carry megabytes of
            // DRAM, and sub-floor caches on miniature test devices would
            // thrash for every scheme alike.
            cache_bytes: (logical_pages * 4 * 45 / 100).max(2 << 20),
            gc_threshold: 0.10,
            gc_hysteresis: crate::gc::GcConfig::default().hysteresis,
            gc: GcTuning::default(),
            pipeline: PipelineConfig::default(),
            learned: LearnedConfig::default(),
        }
    }

    /// Cache capacity in translation pages.
    pub fn cache_tpages(&self, page_bytes: u32) -> usize {
        ((self.cache_bytes / u64::from(page_bytes)).max(1)) as usize
    }
}

/// The FTL interface the simulator drives.
pub trait FtlScheme {
    /// Service a host write.
    fn write(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome>;

    /// Service a host read.
    fn read(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome>;

    /// Run garbage collection if the free-space threshold is breached.
    /// With preemption enabled this runs one budgeted slice and may leave
    /// an episode parked; the simulator calls it after every write, so a
    /// parked episode resumes on the next call.
    fn maybe_gc(&mut self, env: &mut FtlEnv<'_>) -> Result<GcReport>;

    /// Run idle (background) GC for up to `max_pages` page copies during a
    /// host arrival gap ([`crate::gc::GcState::idle_collect`]).
    fn idle_gc(&mut self, env: &mut FtlEnv<'_>, max_pages: u64) -> Result<GcReport>;

    /// Cumulative event counters since construction.
    fn counters(&self) -> &SchemeCounters;

    /// Mapping-cache hit/miss/eviction statistics.
    fn cache_stats(&self) -> CacheStats;

    /// Pipelined map-engine counters (all zero with the pipeline off).
    fn map_engine_stats(&self) -> MapEngineStats;

    /// Learned-mapping counters (all zero for every scheme except
    /// [`SchemeKind::Learned`]).
    fn learned_stats(&self) -> LearnedStats {
        LearnedStats::default()
    }

    /// Modelled mapping-table footprint in bytes (Figure 12(a)).
    fn mapping_table_bytes(&self) -> u64;

    /// Number of logical pages the scheme exports to the host.
    fn logical_pages(&self) -> u64;

    /// Turn scheme-event logging on or off (AMerge/ARollback timings for
    /// the observability layer). Schemes without composite internal
    /// operations keep the default no-op.
    fn set_event_log(&mut self, _enabled: bool) {}

    /// Move events logged since the last drain into `into`. Default: none.
    fn drain_events(&mut self, _into: &mut Vec<SchemeEvent>) {}

    /// Snapshot the complete logical-to-physical mapping for a crash
    /// checkpoint (see [`crate::recovery`]).
    fn capture_image(&self) -> crate::recovery::SchemeImage;
}

/// One of the four schemes, held by value so a device can be forked whole.
/// Callers reach it through [`Scheme::as_dyn`] / [`Scheme::as_dyn_mut`].
#[derive(Clone)]
pub enum Scheme {
    /// The conventional page-level FTL.
    Baseline(BaselineFtl),
    /// The MRSM comparator.
    Mrsm(MrsmFtl),
    /// The paper's Across-FTL.
    Across(AcrossFtl),
    /// The learned-mapping comparator.
    Learned(LearnedFtl),
}

impl Scheme {
    /// A fresh `kind` scheme for a device of `geometry`.
    pub fn new(kind: SchemeKind, geometry: &Geometry, cfg: SchemeConfig) -> Self {
        match kind {
            SchemeKind::Baseline => Scheme::Baseline(BaselineFtl::new(geometry, cfg)),
            SchemeKind::Mrsm => Scheme::Mrsm(MrsmFtl::new(geometry, cfg)),
            SchemeKind::Across => Scheme::Across(AcrossFtl::new(geometry, cfg)),
            SchemeKind::Learned => Scheme::Learned(LearnedFtl::new(geometry, cfg)),
        }
    }

    /// A `kind` scheme preloaded with a recovered mapping (see
    /// [`crate::recovery`]), refusing an image part `kind` cannot hold.
    pub fn from_image(
        kind: SchemeKind,
        geometry: &Geometry,
        cfg: SchemeConfig,
        image: &crate::recovery::SchemeImage,
    ) -> Self {
        match kind {
            SchemeKind::Baseline => Scheme::Baseline(BaselineFtl::from_image(geometry, cfg, image)),
            SchemeKind::Mrsm => Scheme::Mrsm(MrsmFtl::from_image(geometry, cfg, image)),
            SchemeKind::Across => Scheme::Across(AcrossFtl::from_image(geometry, cfg, image)),
            SchemeKind::Learned => Scheme::Learned(LearnedFtl::from_image(geometry, cfg, image)),
        }
    }

    /// One stage of request-ahead prefetch for logical page `lpn` of a
    /// request served a few requests from now: hint the CPU to fetch what
    /// serving it will touch first (DESIGN.md §9). Reads the tables as they
    /// are — builds none, moves no map-cache LRU, counts no DRAM access —
    /// so no simulated number changes; an LPN past them is skipped.
    #[inline]
    pub fn prefetch(&self, array: &FlashArray, lpn: u64, stage: PrefetchStage) {
        match self {
            Scheme::Baseline(BaselineFtl { core }) | Scheme::Learned(LearnedFtl { core, .. }) => {
                core.prefetch(array, lpn, stage)
            }
            Scheme::Across(s) => s.prefetch(array, lpn, stage),
            Scheme::Mrsm(s) => s.prefetch(array, lpn, stage),
        }
    }

    /// The scheme behind its interface.
    pub fn as_dyn(&self) -> &(dyn FtlScheme + Send) {
        match self {
            Scheme::Baseline(s) => s,
            Scheme::Mrsm(s) => s,
            Scheme::Across(s) => s,
            Scheme::Learned(s) => s,
        }
    }

    /// The scheme behind its interface, mutably.
    pub fn as_dyn_mut(&mut self) -> &mut (dyn FtlScheme + Send) {
        match self {
            Scheme::Baseline(s) => s,
            Scheme::Mrsm(s) => s,
            Scheme::Across(s) => s,
            Scheme::Learned(s) => s,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared oracle-stamp helpers
// ---------------------------------------------------------------------------

/// Content stamps for programming a page that holds `extent`'s new data at
/// `version`, merged over `base` (the old page's stamps for read-modify-
/// write; `None` for a fresh program).
pub(crate) fn extent_stamps(
    spp: u32,
    extent: &PageExtent,
    version: u64,
    base: Option<&[Option<SectorStamp>]>,
) -> Box<[Option<SectorStamp>]> {
    let mut stamps: Vec<Option<SectorStamp>> = match base {
        Some(b) => b.to_vec(),
        None => vec![None; spp as usize],
    };
    stamps.resize(spp as usize, None);
    let start = extent.start_sector(spp);
    let page_start = extent.lpn * u64::from(spp);
    stamp_range(
        &mut stamps,
        page_start,
        start,
        start + u64::from(extent.len),
        version,
    );
    stamps.into_boxed_slice()
}

/// Stamp sectors `[start, end)` at `version` into `stamps`, a page whose
/// slot 0 holds sector `base`.
pub(crate) fn stamp_range(
    stamps: &mut [Option<SectorStamp>],
    base: u64,
    start: u64,
    end: u64,
    version: u64,
) {
    for sector in start..end {
        stamps[(sector - base) as usize] = Some(SectorStamp { sector, version });
    }
}

/// Carry the stamps of sectors `[start, end)` from `src` (slot 0 holds
/// sector `src_base`) into `dst` (slot 0 holds `dst_base`).
pub(crate) fn carry_range(
    dst: &mut [Option<SectorStamp>],
    dst_base: u64,
    src: &[Option<SectorStamp>],
    src_base: u64,
    start: u64,
    end: u64,
) {
    for sector in start..end {
        dst[(sector - dst_base) as usize] =
            src.get((sector - src_base) as usize).copied().flatten();
    }
}

/// Assemble served-sector provenance for `count` sectors starting at
/// `first_sector`, read from `ppn` at in-page sector index `page_offset`.
pub(crate) fn served_from_page(
    array: &FlashArray,
    ppn: Ppn,
    page_offset: u32,
    first_sector: u64,
    count: u32,
    out: &mut Vec<ServedSector>,
) {
    let content = array.content_of(ppn);
    for i in 0..count {
        let sector = first_sector + u64::from(i);
        let version =
            match content.and_then(|c| c.get((page_offset + i) as usize).copied().flatten()) {
                Some(stamp) if stamp.sector == sector => stamp.version,
                Some(_) => u64::MAX, // page holds data for a different sector: mapping bug
                None => 0,
            };
        out.push(ServedSector { sector, version });
    }
}

/// Served-sector provenance for sectors known to be unwritten.
pub(crate) fn served_unwritten(first_sector: u64, count: u32, out: &mut Vec<ServedSector>) {
    for i in 0..count {
        out.push(ServedSector {
            sector: first_sector + u64::from(i),
            version: 0,
        });
    }
}

/// Served-sector provenance for sectors whose page was lost after the
/// read-retry ladder was exhausted: the device acknowledges the loss.
pub(crate) fn served_lost(first_sector: u64, count: u32, out: &mut Vec<ServedSector>) {
    for i in 0..count {
        out.push(ServedSector {
            sector: first_sector + u64::from(i),
            version: LOST_VERSION,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagemap::PageMapCore;
    use aftl_flash::{PageKind, TimingSpec};

    #[test]
    fn scheme_config_defaults() {
        let g = Geometry::paper_default();
        let cfg = SchemeConfig::for_geometry(&g);
        assert_eq!(cfg.logical_pages, g.total_pages() * 9 / 10);
        assert_eq!(
            cfg.cache_bytes,
            (cfg.logical_pages * 4 * 45 / 100).max(2 << 20)
        );
        assert!((cfg.gc_threshold - 0.10).abs() < 1e-12);
        assert!(cfg.cache_tpages(8192) > 0);
    }

    #[test]
    fn extent_stamps_overlay_base() {
        let spp = 8;
        let extent = PageExtent {
            lpn: 2,
            offset: 2,
            len: 3,
        };
        let base: Vec<Option<SectorStamp>> = (0..8)
            .map(|i| {
                Some(SectorStamp {
                    sector: 16 + i,
                    version: 1,
                })
            })
            .collect();
        let stamps = extent_stamps(spp, &extent, 5, Some(&base));
        assert_eq!(stamps[1].unwrap().version, 1);
        assert_eq!(stamps[2].unwrap().version, 5);
        assert_eq!(stamps[4].unwrap().version, 5);
        assert_eq!(stamps[5].unwrap().version, 1);
        assert_eq!(stamps[2].unwrap().sector, 18);
    }

    #[test]
    fn extent_stamps_fresh_page_leaves_holes() {
        let stamps = extent_stamps(
            8,
            &PageExtent {
                lpn: 0,
                offset: 6,
                len: 2,
            },
            3,
            None,
        );
        assert!(stamps[0].is_none());
        assert!(stamps[5].is_none());
        assert_eq!(stamps[6].unwrap().version, 3);
        assert_eq!(stamps[7].unwrap().sector, 7);
    }

    #[test]
    fn program_normal_extent_rmw_behaviour() {
        let g = Geometry::tiny(); // spp = 8
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        array.enable_content_tracking();
        let mut alloc = Allocator::new(&array);
        let cfg = SchemeConfig {
            logical_pages: 64,
            ..SchemeConfig::for_geometry(&g)
        };
        let mut core = PageMapCore::new(&g, cfg, crate::baseline::ENTRY_BYTES);
        core.ensure_pmt();
        let mut env = FtlEnv {
            array: &mut array,
            alloc: &mut alloc,
            now_ns: 0,
        };

        // Full-page write: no RMW.
        let full = PageExtent {
            lpn: 1,
            offset: 0,
            len: 8,
        };
        core.program_extent(&mut env, &full, 1, 0, None).unwrap();
        assert_eq!(core.counters.rmw_reads, 0);
        let first_ppn = core.pmt.get(1);
        assert!(first_ppn.is_valid());

        // Partial update of the same LPN: RMW read + merge.
        let part = PageExtent {
            lpn: 1,
            offset: 2,
            len: 2,
        };
        core.program_extent(&mut env, &part, 2, 0, None).unwrap();
        assert_eq!(core.counters.rmw_reads, 1);
        let new_ppn = core.pmt.get(1);
        assert_ne!(new_ppn, first_ppn);
        // Old page invalidated.
        assert!(env.array.page_info(first_ppn).unwrap().is_invalid());
        // Merged stamps: sector 8+2 at v2, sector 8+5 still v1.
        let c = env.array.content_of(new_ppn).unwrap();
        assert_eq!(c[2].unwrap().version, 2);
        assert_eq!(c[5].unwrap().version, 1);

        // Partial write to a fresh LPN: no read, holes left.
        let fresh = PageExtent {
            lpn: 2,
            offset: 0,
            len: 4,
        };
        core.program_extent(&mut env, &fresh, 3, 0, None).unwrap();
        assert_eq!(core.counters.rmw_reads, 1, "no RMW for unmapped LPN");
        let c = env.array.content_of(core.pmt.get(2)).unwrap();
        assert!(c[6].is_none());
    }

    #[test]
    fn served_from_page_detects_wrong_mapping() {
        let g = Geometry::tiny();
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        array.enable_content_tracking();
        array
            .program(Ppn(0), PageKind::Data, 9, 4096, 0, 0)
            .unwrap();
        let stamps: Vec<Option<SectorStamp>> = (0..8)
            .map(|i| {
                Some(SectorStamp {
                    sector: 100 + i,
                    version: 7,
                })
            })
            .collect();
        array.record_content(Ppn(0), stamps.into_boxed_slice());
        let mut out = Vec::new();
        served_from_page(&array, Ppn(0), 0, 100, 1, &mut out);
        assert_eq!(out[0].version, 7);
        out.clear();
        // Asking for sector 100 at page offset 1 (which holds sector 101)
        // must be flagged as a mapping bug.
        served_from_page(&array, Ppn(0), 1, 100, 1, &mut out);
        assert_eq!(out[0].version, u64::MAX, "stamp sector mismatch flagged");
    }
}
