//! The block model the flat page store replaced, kept verbatim as the
//! test reference: a block that owns its pages as one `Vec<PageInfo>`.
//! `array::tests::flat_store_equals_block_reference` drives a device built
//! from these beside a [`crate::FlashArray`] and compares them after every
//! operation.

use serde::{Deserialize, Serialize};

use crate::page::{PageInfo, PageKind, PageState};

/// A NAND block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Block {
    pages: Vec<PageInfo>,
    /// Next programmable page index (NAND requires in-order programming).
    write_ptr: u32,
    valid_count: u32,
    invalid_count: u32,
    erase_count: u64,
    /// Bad-block flag: a retired block never accepts programs again and
    /// never returns to the allocator's free pool.
    #[serde(default)]
    retired: bool,
}

impl Block {
    /// A fully erased block of `pages_per_block` pages.
    pub fn new(pages_per_block: u32) -> Self {
        Block {
            pages: vec![PageInfo::free(); pages_per_block as usize],
            write_ptr: 0,
            valid_count: 0,
            invalid_count: 0,
            erase_count: 0,
            retired: false,
        }
    }

    /// Number of pages in the block.
    #[inline]
    pub fn pages_per_block(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Per-page state at in-block index `idx`.
    #[inline]
    pub fn page(&self, idx: u32) -> &PageInfo {
        &self.pages[idx as usize]
    }

    /// Next page index the block can program, or `None` when full or
    /// retired (a retired active block thereby drains out of the
    /// allocator's rotation through the normal "block filled up" path).
    #[inline]
    pub fn next_free_page(&self) -> Option<u32> {
        (!self.retired && self.write_ptr < self.pages_per_block()).then_some(self.write_ptr)
    }

    /// Whether every page has been programmed.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.write_ptr == self.pages_per_block()
    }

    /// Whether the block is entirely erased.
    #[inline]
    pub fn is_free(&self) -> bool {
        self.write_ptr == 0
    }

    /// Pages currently holding valid data.
    #[inline]
    pub fn valid_count(&self) -> u32 {
        self.valid_count
    }

    /// Pages whose data has been superseded (GC reclaims these).
    #[inline]
    pub fn invalid_count(&self) -> u32 {
        self.invalid_count
    }

    /// How many times the block has been erased (wear).
    #[inline]
    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    /// Whether the block has been retired by the bad-block manager.
    #[inline]
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// Retire the block (program/erase failure or worn out). Idempotent.
    pub(crate) fn retire(&mut self) {
        self.retired = true;
    }

    /// Mark page `idx` programmed with the given kind/tag/sequence stamp.
    /// Enforces the sequential-program constraint; returns the previous
    /// write pointer on success.
    pub(crate) fn program(
        &mut self,
        idx: u32,
        kind: PageKind,
        tag: u64,
        seq: u64,
    ) -> Result<(), u32> {
        if idx != self.write_ptr {
            return Err(self.write_ptr);
        }
        let p = &mut self.pages[idx as usize];
        debug_assert!(p.is_free());
        p.state = PageState::Valid;
        p.kind = kind;
        p.tag = tag;
        p.seq = seq;
        self.write_ptr += 1;
        self.valid_count += 1;
        Ok(())
    }

    /// Invalidate a previously valid page.
    pub(crate) fn invalidate(&mut self, idx: u32) -> bool {
        let p = &mut self.pages[idx as usize];
        if p.state != PageState::Valid {
            return false;
        }
        p.state = PageState::Invalid;
        self.valid_count -= 1;
        self.invalid_count += 1;
        true
    }

    /// Erase the block, resetting all pages. Returns the number of pages
    /// that were still valid (callers treat nonzero as a protocol error).
    pub(crate) fn erase(&mut self) -> u32 {
        let valid = self.valid_count;
        for p in &mut self.pages {
            *p = PageInfo::free();
        }
        self.write_ptr = 0;
        self.valid_count = 0;
        self.invalid_count = 0;
        self.erase_count += 1;
        valid
    }

    /// Crash-recovery rebuild: re-derive every programmed page's state from
    /// the `live` predicate (true = the page holds the winning copy of its
    /// logical content). Pages past the write pointer stay free; the
    /// valid/invalid counters are recomputed. Unlike [`Self::invalidate`]
    /// this may also resurrect an invalid page to valid — after a power cut
    /// an in-DRAM invalidation of a page whose replacement never committed
    /// is simply forgotten.
    pub(crate) fn rebuild_states(&mut self, mut live: impl FnMut(u32) -> bool) {
        let mut valid = 0u32;
        let mut invalid = 0u32;
        for idx in 0..self.write_ptr {
            let p = &mut self.pages[idx as usize];
            if live(idx) {
                p.state = PageState::Valid;
                valid += 1;
            } else {
                p.state = PageState::Invalid;
                invalid += 1;
            }
        }
        self.valid_count = valid;
        self.invalid_count = invalid;
    }

    /// Iterate the indices of valid pages (used by GC migration).
    pub fn valid_pages(&self) -> impl Iterator<Item = (u32, &PageInfo)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_valid())
            .map(|(i, p)| (i as u32, p))
    }
}
