//! The page mapping table (PMT).
//!
//! A dense LPN-indexed table. Each entry holds the physical page number and
//! — for Across-FTL — the `AIdx` link into the across-page mapping table
//! (Figure 5). The paper stores `AIdx` on the entries of *both* LPNs an
//! across-page area spans, so reads that touch only the second page still
//! find the area; we do the same.

use aftl_flash::Ppn;
use serde::{Deserialize, Serialize};

/// Sentinel for "no across-page area".
pub const NO_AIDX: u32 = u32::MAX;

/// One PMT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmtEntry {
    /// Physical location of the normally-mapped page data, or
    /// [`Ppn::INVALID`] when the LPN has never been written normally.
    pub ppn: Ppn,
    /// Index into the AMT when (part of) this LPN's data lives in an
    /// across-page area; [`NO_AIDX`] otherwise.
    pub aidx: u32,
}

impl PmtEntry {
    /// An unmapped entry (no PPN, no area).
    pub const fn empty() -> Self {
        PmtEntry {
            ppn: Ppn::INVALID,
            aidx: NO_AIDX,
        }
    }

    /// Whether the LPN has a normal physical page.
    #[inline]
    pub fn has_ppn(&self) -> bool {
        self.ppn.is_valid()
    }

    /// Whether (part of) the LPN's data lives in an across-page area.
    #[inline]
    pub fn has_area(&self) -> bool {
        self.aidx != NO_AIDX
    }
}

impl Default for PmtEntry {
    fn default() -> Self {
        Self::empty()
    }
}

/// The table stores a PPN in 32 bits, `u32::MAX` standing for
/// [`Ppn::INVALID`], so a device must have fewer than this many physical
/// pages (32 TiB of 8 KiB pages). Page-mapped schemes check their geometry
/// against it once ([`assert_ppns_fit`]), so the table only debug-asserts.
pub(crate) const PPN_LIMIT: u64 = u32::MAX as u64;

/// Panic unless every PPN of `geometry` fits a table word. Called where a
/// scheme is built, before its table is allocated.
pub(crate) fn assert_ppns_fit(geometry: &aftl_flash::Geometry) {
    assert!(
        geometry.total_pages() < PPN_LIMIT,
        "the page mapping table stores PPNs in 32 bits: \
         {} physical pages is not below the limit of {PPN_LIMIT}",
        geometry.total_pages()
    );
}

/// A [`PmtEntry`] as the table stores it: 8 bytes against the value's 16.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The PPN, or `u32::MAX` for [`Ppn::INVALID`].
    ppn: u32,
    aidx: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 8);

const NO_PPN: u32 = u32::MAX;

#[inline]
pub(super) fn pack_ppn(ppn: Ppn) -> u32 {
    if ppn.is_valid() {
        debug_assert!(ppn.0 < PPN_LIMIT, "{ppn} does not fit a PMT word");
        ppn.0 as u32
    } else {
        NO_PPN
    }
}

#[inline]
pub(super) fn unpack_ppn(word: u32) -> Ppn {
    if word == NO_PPN {
        Ppn::INVALID
    } else {
        Ppn(u64::from(word))
    }
}

/// Dense page mapping table over the device's exported logical space.
#[derive(Debug, Clone)]
pub struct PageMapTable {
    entries: Vec<Slot>,
    mapped: u64,
}

impl PageMapTable {
    /// A table with every LPN unmapped.
    pub fn new(logical_pages: u64) -> Self {
        PageMapTable {
            entries: vec![
                Slot {
                    ppn: NO_PPN,
                    aidx: NO_AIDX,
                };
                logical_pages as usize
            ],
            mapped: 0,
        }
    }

    /// Size of the exported logical space in pages.
    #[inline]
    pub fn logical_pages(&self) -> u64 {
        self.entries.len() as u64
    }

    /// LPNs that currently have a normal physical page.
    #[inline]
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// The entry for `lpn`.
    #[inline]
    pub fn get(&self, lpn: u64) -> PmtEntry {
        let slot = self.entries[lpn as usize];
        PmtEntry {
            ppn: unpack_ppn(slot.ppn),
            aidx: slot.aidx,
        }
    }

    /// Hint the CPU to fetch `lpn`'s slot ([`aftl_flash::prefetch()`]).
    /// Panics past the table, as [`Self::get`] does.
    #[inline]
    pub fn prefetch(&self, lpn: u64) {
        aftl_flash::prefetch(&self.entries[lpn as usize]);
    }

    /// Set the normal-data PPN, returning the previous one (to invalidate).
    pub fn set_ppn(&mut self, lpn: u64, ppn: Ppn) -> Ppn {
        let slot = &mut self.entries[lpn as usize];
        let old = unpack_ppn(slot.ppn);
        if !old.is_valid() && ppn.is_valid() {
            self.mapped += 1;
        } else if old.is_valid() && !ppn.is_valid() {
            self.mapped -= 1;
        }
        slot.ppn = pack_ppn(ppn);
        old
    }

    /// Set or clear the across-area link.
    pub fn set_aidx(&mut self, lpn: u64, aidx: u32) {
        self.entries[lpn as usize].aidx = aidx;
    }

    /// Whether `lpn` falls inside the exported logical space.
    #[inline]
    pub fn in_range(&self, lpn: u64) -> bool {
        (lpn as usize) < self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_entry_flags() {
        let e = PmtEntry::empty();
        assert!(!e.has_ppn());
        assert!(!e.has_area());
    }

    #[test]
    fn mapped_count_tracks_set_and_clear() {
        let mut t = PageMapTable::new(10);
        assert_eq!(t.mapped_pages(), 0);
        assert_eq!(t.set_ppn(3, Ppn(100)), Ppn::INVALID);
        assert_eq!(t.mapped_pages(), 1);
        // Remap: count unchanged, old PPN returned.
        assert_eq!(t.set_ppn(3, Ppn(200)), Ppn(100));
        assert_eq!(t.mapped_pages(), 1);
        // Unmap.
        assert_eq!(t.set_ppn(3, Ppn::INVALID), Ppn(200));
        assert_eq!(t.mapped_pages(), 0);
    }

    #[test]
    fn aidx_roundtrip() {
        let mut t = PageMapTable::new(4);
        t.set_aidx(2, 7);
        assert!(t.get(2).has_area());
        assert_eq!(t.get(2).aidx, 7);
        t.set_aidx(2, NO_AIDX);
        assert!(!t.get(2).has_area());
    }

    #[test]
    fn packed_ppn_round_trips_at_the_limits() {
        let mut t = PageMapTable::new(4);
        assert_eq!(t.get(0), PmtEntry::empty());
        let top = Ppn(PPN_LIMIT - 1);
        assert_eq!(t.set_ppn(1, top), Ppn::INVALID);
        assert_eq!(t.get(1).ppn, top);
        assert_eq!(t.mapped_pages(), 1);
        // The area link sits in its own word.
        t.set_aidx(1, 9);
        assert_eq!(t.get(1), PmtEntry { ppn: top, aidx: 9 });
        assert_eq!(t.set_ppn(1, Ppn::INVALID), top);
        assert_eq!(t.get(1).ppn, Ppn::INVALID);
        assert!(!t.get(1).has_ppn());
        assert_eq!(t.get(1).aidx, 9);
        assert_eq!(t.mapped_pages(), 0);
    }

    /// A geometry of one-page blocks, `[channels, chips, dies, planes,
    /// blocks]` along its dimensions.
    fn one_page_blocks(dims: [u32; 5]) -> aftl_flash::Geometry {
        aftl_flash::Geometry {
            channels: dims[0],
            chips_per_channel: dims[1],
            dies_per_chip: dims[2],
            planes_per_die: dims[3],
            blocks_per_plane: dims[4],
            pages_per_block: 1,
            page_bytes: 8192,
            sector_bytes: 512,
        }
    }

    /// 2³² − 1 pages: one too many.
    fn oversized() -> (aftl_flash::Geometry, crate::scheme::SchemeConfig) {
        let g = one_page_blocks([3, 5, 17, 257, 65537]);
        assert_eq!(g.total_pages(), PPN_LIMIT);
        (g, crate::scheme::SchemeConfig::for_geometry(&g))
    }

    #[test]
    fn largest_geometry_that_fits() {
        let g = one_page_blocks([2, 1, 1, 1, i32::MAX as u32]);
        assert_eq!(g.total_pages(), PPN_LIMIT - 1);
        assert_ppns_fit(&g);
    }

    #[test]
    #[should_panic(expected = "PPNs in 32 bits")]
    fn baseline_refuses_oversized_geometry() {
        let (g, cfg) = oversized();
        crate::baseline::BaselineFtl::new(&g, cfg);
    }

    #[test]
    #[should_panic(expected = "PPNs in 32 bits")]
    fn across_refuses_oversized_geometry() {
        let (g, cfg) = oversized();
        crate::across::AcrossFtl::new(&g, cfg);
    }

    #[test]
    #[should_panic(expected = "PPNs in 32 bits")]
    fn learned_refuses_oversized_geometry() {
        let (g, cfg) = oversized();
        crate::learned::LearnedFtl::new(&g, cfg);
    }

    #[test]
    fn range_check() {
        let t = PageMapTable::new(4);
        assert!(t.in_range(3));
        assert!(!t.in_range(4));
    }
}
