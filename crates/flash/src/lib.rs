//! # aftl-flash — NAND flash array substrate
//!
//! This crate models the physical half of a flash-based SSD: the
//! channel/chip/die/plane/block/page hierarchy, NAND operation timing,
//! per-page state and out-of-band (OOB) metadata, free-space bookkeeping,
//! dynamic page allocation, and wear statistics.
//!
//! It deliberately knows nothing about logical-to-physical mapping — that is
//! the job of the FTL schemes in `aftl-core`. The contract is:
//!
//! * the FTL asks the [`allocator`] for a free physical page (optionally in a
//!   given *stream*, so map pages, across-page areas and normal data land in
//!   different blocks),
//! * the FTL issues [`array::FlashArray::program`], [`array::FlashArray::read`]
//!   and [`array::FlashArray::erase`] operations carrying a host timestamp,
//!   and gets back the completion time computed from per-chip and per-channel
//!   timelines,
//! * the FTL invalidates superseded pages, and the array keeps the free /
//!   valid / invalid accounting that garbage collection consumes.
//!
//! Timing constants default to the paper's Table 1 (TLC: 0.075 ms read,
//! 2 ms program, 0.001 ms DRAM cache access).

#![warn(missing_docs)]

pub mod allocator;
pub mod array;
pub mod block;
pub mod error;
pub mod faults;
pub mod geometry;
pub mod oob;
pub mod page;
pub mod prefetch;
pub mod stats;
pub mod timing;
pub mod victims;

pub use allocator::{Allocator, StreamId};
pub use array::{FlashArray, FlashOp, FlashOpRecord, OpOutcome, PageRead, Relocation};
pub use block::BlockAddr;
pub use error::FlashError;
pub use faults::{FaultConfig, FaultInjector};
pub use geometry::{Geometry, GeometryBuilder, PageAddr, Ppn};
pub use oob::{KillRecord, OobDesc, OobExtra, OOB_GROUP_POISONED};
pub use page::{PageInfo, PageKind, PageStamps, PageState, SectorStamp, LOST_VERSION};
pub use prefetch::{prefetch, PrefetchStage};
pub use stats::FlashStats;
pub use timing::TimingSpec;
pub use victims::VictimIndex;

/// Nanosecond timestamps used across the simulator.
pub type Nanos = u64;

/// Convenience result alias for flash operations.
pub type Result<T> = std::result::Result<T, FlashError>;
