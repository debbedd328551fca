//! Dynamic page allocation with channel-first striping and stream
//! separation.
//!
//! SSDsim's default dynamic allocation spreads consecutive writes across
//! channels for parallelism; we reproduce that with a round-robin plane
//! cursor. Pages of different *streams* (normal data, across-page areas,
//! translation pages, GC migrations) are written to different active blocks
//! so that map traffic and re-aligned areas do not interleave with user data
//! inside one block — the same separation SSDsim applies to map blocks.

use std::collections::VecDeque;

use crate::array::FlashArray;
use crate::block::BlockAddr;
use crate::error::FlashError;
use crate::geometry::Ppn;
use crate::Result;

/// Allocation streams, one active block per plane each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// Normally mapped user data.
    Data = 0,
    /// Re-aligned across-page areas (Across-FTL) / sub-page region pages
    /// (MRSM).
    Across = 1,
    /// Translation (mapping-table) pages.
    Map = 2,
    /// Valid pages migrated by garbage collection.
    Gc = 3,
}

const NUM_STREAMS: usize = 4;

#[derive(Debug, Clone, Default)]
struct PlaneAlloc {
    active: [Option<BlockAddr>; NUM_STREAMS],
    free_list: VecDeque<u32>,
}

/// The device-wide allocator. Owns per-plane free lists; the [`FlashArray`]
/// remains the source of truth for page states.
#[derive(Debug, Clone)]
pub struct Allocator {
    planes: Vec<PlaneAlloc>,
    cursor: u64,
    total_blocks: u64,
    free_blocks: u64,
}

impl Allocator {
    /// Build an allocator over a freshly erased array.
    pub fn new(array: &FlashArray) -> Self {
        let g = array.geometry();
        let planes = (0..g.total_planes())
            .map(|_| PlaneAlloc {
                active: [None; NUM_STREAMS],
                free_list: (0..g.blocks_per_plane).collect(),
            })
            .collect();
        Allocator {
            planes,
            cursor: 0,
            total_blocks: g.total_blocks(),
            free_blocks: g.total_blocks(),
        }
    }

    /// Rebuild an allocator over a *recovered* array (crash recovery):
    /// fully erased, non-retired blocks go to the free lists; partially
    /// programmed blocks are re-adopted as active blocks (their remaining
    /// free pages stay usable), one per stream slot in discovery order.
    /// Stream affinity is lost — the crash erased the DRAM record of which
    /// stream owned which block — which costs some stream separation until
    /// GC churns the adopted blocks out, but loses no capacity as long as
    /// at most 4 partial blocks exist per plane (the steady state, since
    /// only the 4 per-stream active blocks are ever partially programmed).
    pub fn rebuild(array: &FlashArray) -> Self {
        let g = array.geometry();
        let mut planes = Vec::with_capacity(g.total_planes() as usize);
        let mut free_blocks = 0u64;
        for plane_idx in 0..g.total_planes() {
            let mut pa = PlaneAlloc::default();
            let mut next_slot = 0usize;
            for s in array.block_summaries(plane_idx) {
                if s.retired {
                    continue;
                }
                let programmed = s.valid + s.invalid;
                if programmed == 0 {
                    pa.free_list.push_back(s.addr.block);
                    free_blocks += 1;
                } else if !s.full && next_slot < NUM_STREAMS {
                    pa.active[next_slot] = Some(s.addr);
                    next_slot += 1;
                }
                // A full block is neither free nor active; GC reclaims it.
            }
            planes.push(pa);
        }
        Allocator {
            planes,
            cursor: 0,
            total_blocks: g.total_blocks(),
            free_blocks,
        }
    }

    /// Blocks currently in the free lists (erased and unclaimed).
    #[inline]
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// Free-list fraction of all blocks; the GC trigger compares this to the
    /// 10 % threshold from Table 1.
    #[inline]
    pub fn free_fraction(&self) -> f64 {
        self.free_blocks as f64 / self.total_blocks as f64
    }

    /// Whether `addr` is an active (currently written) block of any stream.
    /// GC must not pick active blocks as victims.
    pub fn is_active(&self, addr: BlockAddr) -> bool {
        self.planes[addr.plane_idx as usize]
            .active
            .contains(&Some(addr))
    }

    /// Return an erased block to the free pool after GC.
    pub fn release_block(&mut self, addr: BlockAddr) {
        self.planes[addr.plane_idx as usize]
            .free_list
            .push_back(addr.block);
        self.free_blocks += 1;
    }

    /// Allocate the next physical page for `stream`, striping across planes.
    ///
    /// The returned PPN is the next sequentially programmable page of the
    /// stream's active block in the chosen plane; when that block fills, a
    /// block is claimed from the plane's free list; when the plane is
    /// exhausted the next plane is tried, and only if *every* plane is out
    /// of space does this fail with [`FlashError::NoFreeBlocks`].
    #[inline]
    pub fn alloc_page(&mut self, array: &FlashArray, stream: StreamId) -> Result<Ppn> {
        let n = self.planes.len() as u64;
        for _ in 0..n {
            let plane_idx = self.cursor;
            self.cursor += 1;
            if self.cursor == n {
                self.cursor = 0;
            }
            if let Some(ppn) = self.try_plane(array, plane_idx, stream) {
                return Ok(ppn);
            }
        }
        Err(FlashError::NoFreeBlocks)
    }

    /// Allocate in a *specific* plane (GC migrates within its plane to keep
    /// the copy-back on one chip, as real controllers do when possible).
    pub fn alloc_page_in_plane(
        &mut self,
        array: &FlashArray,
        plane_idx: u64,
        stream: StreamId,
    ) -> Result<Ppn> {
        if let Some(ppn) = self.try_plane(array, plane_idx, stream) {
            return Ok(ppn);
        }
        // Fall back to any plane rather than failing the migration.
        self.alloc_page(array, stream)
    }

    /// The next page of `stream`'s active block in the plane, or of a block
    /// claimed for it.
    #[inline]
    fn try_plane(&mut self, array: &FlashArray, plane_idx: u64, stream: StreamId) -> Option<Ppn> {
        if let Some(addr) = self.planes[plane_idx as usize].active[stream as usize] {
            if let Some(page) = array.next_free_page(addr) {
                return Some(array.ppn_in_block(addr, page));
            }
        }
        self.claim_block(array, plane_idx, stream)
    }

    /// Replace `stream`'s active block in the plane — filled up, retired or
    /// never claimed — with the plane's next free block, if any.
    #[inline(never)]
    fn claim_block(&mut self, array: &FlashArray, plane_idx: u64, stream: StreamId) -> Option<Ppn> {
        let slot = stream as usize;
        self.planes[plane_idx as usize].active[slot] = None;
        // Skip blocks the bad-block manager retired while they sat in the
        // free list (e.g. a worn-out block that was already erased).
        loop {
            let block = self.planes[plane_idx as usize].free_list.pop_front()?;
            self.free_blocks -= 1;
            let addr = BlockAddr { plane_idx, block };
            if array.is_retired(addr) {
                continue;
            }
            debug_assert_eq!(
                array.next_free_page(addr),
                Some(0),
                "free-list block must be erased"
            );
            self.planes[plane_idx as usize].active[slot] = Some(addr);
            return Some(array.ppn_in_block(addr, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use crate::page::PageKind;
    use crate::timing::TimingSpec;

    fn setup() -> (FlashArray, Allocator) {
        let array = FlashArray::new(Geometry::tiny(), TimingSpec::unit()).unwrap();
        let alloc = Allocator::new(&array);
        (array, alloc)
    }

    #[test]
    fn allocation_stripes_across_planes() {
        let (array, mut alloc) = setup();
        let a = alloc.alloc_page(&array, StreamId::Data).unwrap();
        let b = alloc.alloc_page(&array, StreamId::Data).unwrap();
        let ca = array.geometry().channel_index_of(a);
        let cb = array.geometry().channel_index_of(b);
        assert_ne!(
            ca, cb,
            "consecutive allocations should hit different channels"
        );
    }

    #[test]
    fn streams_use_separate_blocks() {
        let (array, mut alloc) = setup();
        // Pin the cursor to one plane by allocating pairs and comparing the
        // blocks used for different streams in the same plane.
        let d = alloc.alloc_page(&array, StreamId::Data).unwrap();
        // Rewind cursor so the map allocation lands in the same plane.
        alloc.cursor = 0;
        let m = alloc.alloc_page(&array, StreamId::Map).unwrap();
        assert_eq!(
            array.block_addr_of(d).plane_idx,
            array.block_addr_of(m).plane_idx
        );
        assert_ne!(array.block_addr_of(d), array.block_addr_of(m));
    }

    #[test]
    fn sequential_pages_within_active_block() {
        let (mut array, mut alloc) = setup();
        alloc.cursor = 0;
        let p0 = alloc.alloc_page(&array, StreamId::Data).unwrap();
        array.program(p0, PageKind::Data, 0, 512, 0, 0).unwrap();
        alloc.cursor = 0;
        let p1 = alloc.alloc_page(&array, StreamId::Data).unwrap();
        assert_eq!(
            p1.0,
            p0.0 + 1,
            "same plane allocations fill the active block in order"
        );
    }

    #[test]
    fn exhaustion_returns_no_free_blocks() {
        let (mut array, mut alloc) = setup();
        let total_pages = array.geometry().total_pages();
        for i in 0..total_pages {
            let ppn = alloc.alloc_page(&array, StreamId::Data).unwrap();
            array.program(ppn, PageKind::Data, i, 512, 0, 0).unwrap();
        }
        assert!(matches!(
            alloc.alloc_page(&array, StreamId::Data),
            Err(FlashError::NoFreeBlocks)
        ));
        assert_eq!(alloc.free_blocks(), 0);
    }

    #[test]
    fn release_block_restores_capacity() {
        let (mut array, mut alloc) = setup();
        let total_pages = array.geometry().total_pages();
        for i in 0..total_pages {
            let ppn = alloc.alloc_page(&array, StreamId::Data).unwrap();
            array.program(ppn, PageKind::Data, i, 512, 0, 0).unwrap();
        }
        // Free one block.
        let victim = array.block_addr_of(Ppn(0));
        for p in 0..array.geometry().pages_per_block {
            array.invalidate(array.ppn_in_block(victim, p)).unwrap();
        }
        array.erase(victim, 0).unwrap();
        alloc.release_block(victim);
        assert_eq!(alloc.free_blocks(), 1);
        let ppn = alloc.alloc_page(&array, StreamId::Data).unwrap();
        assert_eq!(array.block_addr_of(ppn), victim);
    }

    #[test]
    fn active_blocks_are_flagged() {
        let (array, mut alloc) = setup();
        let p = alloc.alloc_page(&array, StreamId::Data).unwrap();
        let addr = array.block_addr_of(p);
        assert!(alloc.is_active(addr));
    }

    #[test]
    fn retired_free_list_blocks_are_skipped() {
        let (mut array, mut alloc) = setup();
        let bad = BlockAddr {
            plane_idx: 0,
            block: 0,
        };
        array.retire_block(bad);
        alloc.cursor = 0;
        let p = alloc.alloc_page(&array, StreamId::Data).unwrap();
        assert_ne!(
            array.block_addr_of(p),
            bad,
            "allocator must not hand out a retired block"
        );
    }

    #[test]
    fn retired_active_block_is_evicted() {
        let (mut array, mut alloc) = setup();
        alloc.cursor = 0;
        let p = alloc.alloc_page(&array, StreamId::Data).unwrap();
        let addr = array.block_addr_of(p);
        array.retire_block(addr);
        // The active block no longer programs; the next allocation in the
        // same plane claims a fresh block through the normal refill path.
        alloc.cursor = 0;
        let q = alloc.alloc_page(&array, StreamId::Data).unwrap();
        assert_ne!(array.block_addr_of(q), addr);
    }

    #[test]
    fn free_fraction_tracks_claims() {
        let (array, mut alloc) = setup();
        let before = alloc.free_fraction();
        alloc.alloc_page(&array, StreamId::Data).unwrap();
        assert!(alloc.free_fraction() < before);
    }
}
