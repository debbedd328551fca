//! # aftl-core — Across-FTL and comparator FTL schemes
//!
//! This crate implements the paper's contribution and both comparators on
//! top of the `aftl-flash` NAND substrate:
//!
//! * [`baseline`] — the conventional dynamic page-level mapping FTL. An
//!   across-page request costs two page operations; partial-page updates
//!   pay read-modify-write.
//! * [`across`] — **Across-FTL**: across-page requests are re-aligned onto
//!   a single physical page tracked by a second-level mapping table (AMT);
//!   overlapping updates are served by AMerge or ARollback (§3 of the
//!   paper).
//! * [`mrsm`] — the MRSM comparator (Chen et al., TCAD 2020): sub-page
//!   (quarter-page) mapping that overwrites sub-regions without
//!   read-modify-write, at the cost of a much larger, tree-structured
//!   mapping table.
//!
//! A fourth comparator goes beyond the paper's own set: [`learned`] —
//! piecewise-linear LPN→PPN models with predict-then-verify reads that
//! eliminate most translation-page "double reads" (LearnedFTL-style).
//!
//! Shared infrastructure: [`request`] (host requests and page extents),
//! [`mapping`] (page/across mapping tables and the DFTL-style DRAM mapping
//! cache that spills translation pages to flash), [`gc`] (preemptible,
//! policy-pluggable garbage collection with scheme remap callbacks and
//! idle background slices), [`counters`] (the event
//! counters behind the paper's Figures 8–12), [`oracle`] (a
//! sector-version mirror used by tests to prove read-your-writes across
//! remapping, merging, rollback and GC), and [`recovery`] (rebuilding the
//! mapping after a sudden power-off from OOB journaling, optionally seeded
//! by a checkpoint). The old-copy read every scheme uses, and the
//! read-retry ladder and program-failure relocation behind it when fault
//! injection is enabled, are methods of `aftl_flash::FlashArray`.

#![warn(missing_docs)]

pub mod across;
pub mod baseline;
pub mod counters;
pub mod gc;
pub mod learned;
pub mod mapping;
pub mod mrsm;
pub mod obs;
pub mod oracle;
mod pagemap;
pub mod recovery;
pub mod request;
pub mod scheme;

pub use across::{AcrossFtl, AcrossOptions};
pub use aftl_flash::{PageRead, LOST_VERSION};
pub use baseline::BaselineFtl;
pub use counters::SchemeCounters;
pub use gc::{GcConfig, GcPolicy, GcReport, GcState, GcTuning};
pub use learned::{LearnedConfig, LearnedFtl, LearnedStats};
pub use mapping::cache::{CacheStats, MapCache};
pub use mapping::engine::{MapEngine, MapEngineStats, PipelineConfig};
pub use mrsm::MrsmFtl;
pub use obs::{SchemeEvent, SchemeEventKind};
pub use oracle::Oracle;
pub use recovery::{
    recover as crash_recover, AreaImage, Checkpoint, RecoveryMode, RecoveryStats, SchemeImage,
    SubLocs,
};
pub use request::{HostRequest, PageExtent, ReqKind};
pub use scheme::{FtlEnv, FtlScheme, Scheme, SchemeKind, ServiceOutcome};
