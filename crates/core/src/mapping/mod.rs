//! Mapping tables and the DRAM mapping cache.
//!
//! * [`pmt`] — the page mapping table (PMT): one PPN word per LPN,
//! * [`amt`] — the across-page mapping table (AMT): `(AIdx, Off, Size,
//!   APPN)` entries, Figure 5, and the paper's extra per-LPN `AIdx` link
//!   to an across-page area, which Across-FTL alone reads,
//! * [`cache`] — a DFTL-style DRAM cache of translation pages. Schemes
//!   whose tables exceed the cache spill translation pages to flash, which
//!   is what produces the Map components of Figure 10 and the DRAM access
//!   counts of Figure 12(b),
//! * [`engine`] — the pipelined map engine every scheme's consultations
//!   route through: batched map-in resolution, coalesced lookups and
//!   out-of-order data issue (FMMU-style), bit-identical when disabled.

pub mod amt;
pub mod cache;
pub mod engine;
pub mod pmt;
pub mod touched;

pub use amt::{AcrossMapTable, AmtEntry};
pub use cache::{CacheStats, MapCache};
pub use engine::{MapEngine, MapEngineStats, PipelineConfig};
pub use pmt::PageMapTable;
pub use touched::TouchedSet;
