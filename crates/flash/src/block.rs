//! Physical blocks: the erase unit's address, its bookkeeping record
//! (sequential-program pointer, valid/invalid accounting, wear) and the
//! summary garbage collection consumes. Per-page state lives in the
//! array's flat page store, not here.

use serde::{Deserialize, Serialize};

use crate::geometry::Ppn;

#[cfg(test)]
pub(crate) mod reference;

/// Address of a block: the plane it lives in plus its in-plane index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockAddr {
    /// Flat plane index within the array (channel-major order).
    pub plane_idx: u64,
    /// Block index within the plane.
    pub block: u32,
}

/// Per-block bookkeeping. The array keeps one per block in a flat `Vec`
/// indexed by global block id (`plane_idx * blocks_per_plane + block`, the
/// id [`crate::VictimIndex`] uses); the block's pages are the PPN range
/// `id * pages_per_block..` of the page store.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockMeta {
    /// Next programmable page index (NAND requires in-order programming).
    pub(crate) write_ptr: u32,
    /// Pages currently holding valid data.
    pub(crate) valid_count: u32,
    /// Pages whose data has been superseded (GC reclaims these).
    pub(crate) invalid_count: u32,
    /// Bad-block flag: a retired block never accepts programs again and
    /// never returns to the allocator's free pool.
    pub(crate) retired: bool,
    /// How many times the block has been erased (wear).
    pub(crate) erase_count: u64,
}

impl BlockMeta {
    /// Whether the block is entirely erased.
    #[inline]
    pub(crate) fn is_free(&self) -> bool {
        self.write_ptr == 0
    }

    /// Whether every one of its `pages_per_block` pages has been programmed.
    #[inline]
    pub(crate) fn is_full(&self, pages_per_block: u32) -> bool {
        self.write_ptr == pages_per_block
    }

    /// Next page index the block can program, or `None` when full or
    /// retired (a retired active block thereby drains out of the
    /// allocator's rotation through the normal "block filled up" path).
    #[inline]
    pub(crate) fn next_free_page(&self, pages_per_block: u32) -> Option<u32> {
        (!self.retired && self.write_ptr < pages_per_block).then_some(self.write_ptr)
    }
}

/// A lightweight view of a block used by GC victim selection, avoiding
/// borrowing the whole array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// Which block this summarizes.
    pub addr: BlockAddr,
    /// Physical page number of the block’s first page.
    pub first_ppn: Ppn,
    /// Valid-page count at summary time.
    pub valid: u32,
    /// Invalid-page count at summary time.
    pub invalid: u32,
    /// Erase count at summary time.
    pub erases: u64,
    /// Whether every page has been programmed.
    pub full: bool,
    /// Whether the bad-block manager has retired the block.
    pub retired: bool,
}

#[cfg(test)]
mod tests {
    use super::reference::Block;
    use crate::page::PageKind;

    #[test]
    fn sequential_program_enforced() {
        let mut b = Block::new(4);
        assert_eq!(b.next_free_page(), Some(0));
        b.program(0, PageKind::Data, 7, 1).unwrap();
        // Skipping page 1 is rejected and reports the expected pointer.
        assert_eq!(b.program(2, PageKind::Data, 8, 1), Err(1));
        b.program(1, PageKind::Data, 8, 1).unwrap();
        assert_eq!(b.valid_count(), 2);
    }

    #[test]
    fn invalidate_and_erase_cycle() {
        let mut b = Block::new(2);
        b.program(0, PageKind::Data, 1, 1).unwrap();
        b.program(1, PageKind::Map, 2, 1).unwrap();
        assert!(b.is_full());
        assert!(b.invalidate(0));
        assert!(!b.invalidate(0), "double-invalidate must be rejected");
        assert_eq!(b.valid_count(), 1);
        assert_eq!(b.invalid_count(), 1);
        let leaked = b.erase();
        assert_eq!(leaked, 1, "erase reports pages that were still valid");
        assert!(b.is_free());
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.next_free_page(), Some(0));
    }

    #[test]
    fn retired_block_stops_accepting_programs() {
        let mut b = Block::new(4);
        b.program(0, PageKind::Data, 1, 1).unwrap();
        assert!(!b.is_retired());
        b.retire();
        assert!(b.is_retired());
        assert_eq!(b.next_free_page(), None, "retired block must not program");
        b.retire(); // idempotent
        assert!(b.is_retired());
    }

    #[test]
    fn valid_pages_iterates_only_valid() {
        let mut b = Block::new(3);
        b.program(0, PageKind::Data, 10, 1).unwrap();
        b.program(1, PageKind::Data, 11, 1).unwrap();
        b.invalidate(0);
        let v: Vec<u32> = b.valid_pages().map(|(i, _)| i).collect();
        assert_eq!(v, vec![1]);
        assert_eq!(b.valid_pages().next().unwrap().1.tag, 11);
    }
}
