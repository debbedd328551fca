//! Per-page state and out-of-band (OOB) metadata.

use serde::{Deserialize, Serialize};

/// Lifecycle state of a physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageState {
    /// Erased, programmable.
    Free,
    /// Holds live data.
    Valid,
    /// Holds superseded data; space reclaimed at the next erase.
    Invalid,
}

/// What a physical page stores — used for stream separation, GC decisions
/// and the Map-vs-Data split the paper reports in Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageKind {
    /// Normally mapped user data (one logical page).
    Data,
    /// A re-aligned across-page area (Across-FTL) or sub-page region page
    /// (MRSM): user data that does not correspond 1:1 to a logical page.
    AcrossData,
    /// A translation (mapping-table) page flushed by the FTL.
    Map,
}

/// A `(sector, version)` stamp used by the correctness oracle: the simulator
/// can track, per physical page, which logical sectors (and which write
/// generation of each) the page holds, so tests can assert that every read
/// returns the newest version across remapping, merging, rollback and GC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SectorStamp {
    /// Logical sector (LBA in 512 B units).
    pub sector: u64,
    /// Monotonic per-sector write generation.
    pub version: u64,
}

/// Content stamps of one page, a slot per sector (`None` = a sector the
/// page does not hold).
pub type PageStamps = Box<[Option<SectorStamp>]>;

/// Version stamp carried by sectors whose page was lost after exhausting
/// the read-retry ladder ([`crate::array::PageRead::Lost`]). Distinct from
/// `u64::MAX` (which flags a mapping bug) so tests can tell an acknowledged
/// loss from silent corruption.
pub const LOST_VERSION: u64 = u64::MAX - 1;

/// OOB metadata kept per physical page.
///
/// Real SSDs store the reverse map (LPN) in the page's spare area; GC uses
/// it to update the mapping table when migrating valid pages. We extend it
/// with the page kind and, for across-page areas, the identifier of the AMT
/// entry so Across-FTL's GC can fix up its second-level table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageInfo {
    /// Lifecycle state: free, valid, or invalid.
    pub state: PageState,
    /// What the page holds (data, map, across-area).
    pub kind: PageKind,
    /// Reverse-map tag: for `Data` pages the LPN; for `Map` pages the
    /// translation-page id; for `AcrossData` the owning table's entry id.
    pub tag: u64,
    /// Device-wide monotonic program sequence number stamped at program
    /// time. Kept by the crash journal only, so it reads 0 on a page never
    /// programmed and on every page of an array with no crash armed. Crash
    /// recovery arbitrates conflicting copies of the same logical page
    /// with last-writer-wins over this.
    #[serde(default)]
    pub seq: u64,
}

impl PageInfo {
    /// A freshly erased page: free, no kind, no tag, no sequence number.
    pub const fn free() -> Self {
        PageInfo {
            state: PageState::Free,
            kind: PageKind::Data,
            tag: u64::MAX,
            seq: 0,
        }
    }

    /// Whether the page is erased and programmable.
    #[inline]
    pub fn is_free(&self) -> bool {
        self.state == PageState::Free
    }

    /// Whether the page holds current data.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.state == PageState::Valid
    }

    /// Whether the page's data has been superseded.
    #[inline]
    pub fn is_invalid(&self) -> bool {
        self.state == PageState::Invalid
    }
}

impl Default for PageInfo {
    fn default() -> Self {
        Self::free()
    }
}

/// Every page's [`PageInfo`] but its sequence stamp, indexed by PPN, as two
/// parallel arrays rather than an array of records: the questions on the
/// hot path ("is this page valid, what kind is it") read one byte of
/// `meta` — 2 MB for a 16 GiB device, cache-resident — while `tag` is
/// written at program time (sequentially within a block) and read back
/// only by GC and recovery, which stream it. 5 B per page against the
/// record's 24. The program sequence stamp is read by crash recovery alone
/// and lives in the crash journal ([`crate::oob::OobStore`]).
#[derive(Debug, Clone)]
pub(crate) struct PageStore {
    /// [`PageState`] in bits 0–1, [`PageKind`] in bits 2–3; a free page is 0.
    meta: Vec<u8>,
    /// Reverse-map tag; [`FREE_TAG`] on a free page.
    tag: Vec<u32>,
}

const STATE_MASK: u8 = 0b11;
const KIND_SHIFT: u32 = 2;
/// The stored tag of a free page, reported as `u64::MAX`. No programmed
/// page may carry it (see [`narrow_tag`]).
const FREE_TAG: u32 = u32::MAX;

/// A reverse-map tag in its stored 32-bit form. Every tag a scheme
/// programs fits: LPNs and AMT slot indices are below `2^32`, and
/// translation-page ids are PMT page numbers, MRSM leaf indices or
/// Across-FTL's AMT pages from `1 << 31` up.
///
/// # Panics
///
/// On a tag of `u32::MAX` or more.
#[inline]
pub(crate) fn narrow_tag(tag: u64) -> u32 {
    match u32::try_from(tag) {
        Ok(t) if t != FREE_TAG => t,
        _ => panic!("page tag {tag} does not fit the 32-bit OOB tag"),
    }
}

#[inline]
fn pack(state: PageState, kind: PageKind) -> u8 {
    let state = match state {
        PageState::Free => 0,
        PageState::Valid => 1,
        PageState::Invalid => 2,
    };
    let kind = match kind {
        PageKind::Data => 0,
        PageKind::AcrossData => 1,
        PageKind::Map => 2,
    };
    state | kind << KIND_SHIFT
}

impl PageStore {
    /// `total_pages` free pages.
    pub(crate) fn new(total_pages: u64) -> Self {
        let n = total_pages as usize;
        let free = PageInfo::free();
        PageStore {
            meta: vec![pack(free.state, free.kind); n],
            tag: vec![FREE_TAG; n],
        }
    }

    /// Lifecycle state of page `i`.
    #[inline]
    pub(crate) fn state(&self, i: usize) -> PageState {
        match self.meta[i] & STATE_MASK {
            0 => PageState::Free,
            1 => PageState::Valid,
            _ => PageState::Invalid,
        }
    }

    /// Kind of page `i` ([`PageKind::Data`] while it is free).
    #[inline]
    pub(crate) fn kind(&self, i: usize) -> PageKind {
        match self.meta[i] >> KIND_SHIFT {
            0 => PageKind::Data,
            1 => PageKind::AcrossData,
            _ => PageKind::Map,
        }
    }

    /// Hint the CPU to fetch page `i`'s meta byte ([`crate::prefetch()`]).
    #[inline]
    pub(crate) fn prefetch(&self, i: usize) {
        crate::prefetch(&self.meta[i]);
    }

    /// The record of page `i`, assembled by value, with sequence stamp
    /// `seq` (the store keeps none).
    #[inline]
    pub(crate) fn info(&self, i: usize, seq: u64) -> PageInfo {
        let tag = match self.tag[i] {
            FREE_TAG => u64::MAX,
            t => u64::from(t),
        };
        PageInfo {
            state: self.state(i),
            kind: self.kind(i),
            tag,
            seq,
        }
    }

    /// Mark free page `i` programmed with the given kind and (narrowed)
    /// tag.
    #[inline]
    pub(crate) fn program(&mut self, i: usize, kind: PageKind, tag: u32) {
        debug_assert_eq!(self.state(i), PageState::Free);
        self.meta[i] = pack(PageState::Valid, kind);
        self.tag[i] = tag;
    }

    /// Change the state of programmed page `i`, keeping its kind and tag.
    #[inline]
    pub(crate) fn set_state(&mut self, i: usize, state: PageState) {
        debug_assert!(self.state(i) != PageState::Free && state != PageState::Free);
        self.meta[i] = pack(state, self.kind(i));
    }

    /// Reset pages `first..first + n` (one block) to free.
    pub(crate) fn erase(&mut self, first: usize, n: usize) {
        let free = PageInfo::free();
        self.meta[first..first + n].fill(pack(free.state, free.kind));
        self.tag[first..first + n].fill(FREE_TAG);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_page_defaults() {
        let p = PageInfo::free();
        assert!(p.is_free());
        assert!(!p.is_valid());
        assert!(!p.is_invalid());
        assert_eq!(p.kind, PageKind::Data);
    }

    #[test]
    fn state_transitions_reflected_by_predicates() {
        let mut p = PageInfo::free();
        p.state = PageState::Valid;
        assert!(p.is_valid());
        p.state = PageState::Invalid;
        assert!(p.is_invalid());
    }
}
