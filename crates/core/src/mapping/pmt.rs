//! The page mapping table (PMT): one word per LPN holding the physical
//! page number of its normally-mapped data, for every page-mapped scheme.
//! The per-LPN area links Across-FTL adds to it (Figure 5) are that
//! scheme's own and live beside its areas in
//! [`super::amt::AcrossMapTable`].

use aftl_flash::Ppn;

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
    ppns: Vec<u32>,
}

impl PageMapTable {
    /// A table with every LPN unmapped.
    pub fn new(logical_pages: u64) -> Self {
        PageMapTable {
            ppns: vec![NO_PPN; logical_pages as usize],
        }
    }

    /// Size of the exported logical space in pages.
    #[inline]
    pub fn logical_pages(&self) -> u64 {
        self.ppns.len() as u64
    }

    /// The page `lpn` maps to, or [`Ppn::INVALID`] when it has never been
    /// written normally.
    #[inline]
    pub fn get(&self, lpn: u64) -> Ppn {
        unpack_ppn(self.ppns[lpn as usize])
    }

    /// Hint the CPU to fetch `lpn`'s word ([`aftl_flash::prefetch()`]).
    /// Panics past the table, as [`Self::get`] does.
    #[inline]
    pub fn prefetch(&self, lpn: u64) {
        aftl_flash::prefetch(&self.ppns[lpn as usize]);
    }

    /// Set the normal-data PPN, returning the previous one (to invalidate).
    #[inline]
    pub fn set_ppn(&mut self, lpn: u64, ppn: Ppn) -> Ppn {
        unpack_ppn(std::mem::replace(
            &mut self.ppns[lpn as usize],
            pack_ppn(ppn),
        ))
    }

    /// Whether `lpn` falls inside the exported logical space.
    #[inline]
    pub fn in_range(&self, lpn: u64) -> bool {
        (lpn as usize) < self.ppns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_entry_flags() {
        let t = PageMapTable::new(4);
        assert!(!t.get(0).is_valid());
        assert_eq!(t.get(3), Ppn::INVALID);
    }

    #[test]
    fn set_returns_the_previous_ppn() {
        let mut t = PageMapTable::new(10);
        assert_eq!(t.get(3), Ppn::INVALID);
        assert_eq!(t.set_ppn(3, Ppn(100)), Ppn::INVALID);
        assert_eq!(t.get(3), Ppn(100));
        // Remap: old PPN returned.
        assert_eq!(t.set_ppn(3, Ppn(200)), Ppn(100));
        // Unmap.
        assert_eq!(t.set_ppn(3, Ppn::INVALID), Ppn(200));
        assert_eq!(t.get(3), Ppn::INVALID);
    }

    #[test]
    fn packed_ppn_round_trips_at_the_limits() {
        let mut t = PageMapTable::new(4);
        assert_eq!(t.get(0), Ppn::INVALID);
        let top = Ppn(PPN_LIMIT - 1);
        assert_eq!(t.set_ppn(1, top), Ppn::INVALID);
        assert_eq!(t.get(1), top);
        // Neighbours untouched.
        assert_eq!(t.get(0), Ppn::INVALID);
        assert_eq!(t.get(2), Ppn::INVALID);
        assert_eq!(t.set_ppn(1, Ppn::INVALID), top);
        assert_eq!(t.get(1), Ppn::INVALID);
        assert!(!t.get(1).is_valid());
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
