//! The across-page mapping table (AMT) — Figure 5's `(AIdx, Off, Size,
//! APPN)` entries, with slot recycling — and the `AIdx` link the paper
//! adds to each LPN's PMT entry. The links are Across-FTL's alone, so
//! they live here beside the areas they name rather than in the shared
//! page map: the AMT is the one area index, and a link is set or cleared
//! only as an area is inserted or removed.

use aftl_flash::Ppn;
use serde::{Deserialize, Serialize};

/// One across-page area: a contiguous sector range, no larger than one
/// page, spanning two logical pages, whose data lives re-aligned on the
/// single physical page `appn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmtEntry {
    /// Absolute first sector of the area (the paper's `Off`, stored
    /// device-absolute rather than page-relative for convenience).
    pub start_sector: u64,
    /// Length in sectors (the paper's `Size`).
    pub size_sectors: u32,
    /// The across-page physical page number (`APPN`).
    pub appn: Ppn,
}

impl AmtEntry {
    /// Exclusive end sector.
    #[inline]
    pub fn end_sector(&self) -> u64 {
        self.start_sector + u64::from(self.size_sectors)
    }

    /// First spanned LPN.
    #[inline]
    pub fn first_lpn(&self, spp: u32) -> u64 {
        self.start_sector / u64::from(spp)
    }

    /// Last spanned LPN (inclusive).
    #[inline]
    pub fn last_lpn(&self, spp: u32) -> u64 {
        (self.end_sector() - 1) / u64::from(spp)
    }

    /// Whether the area fully contains `[start, end)`.
    #[inline]
    pub fn contains(&self, start: u64, end: u64) -> bool {
        self.start_sector <= start && end <= self.end_sector()
    }

    /// Whether the area overlaps `[start, end)`.
    #[inline]
    pub fn overlaps(&self, start: u64, end: u64) -> bool {
        self.start_sector < end && start < self.end_sector()
    }

    /// Whether `[start, end)` overlaps or directly abuts the area (an
    /// abutting update can still be merged into one contiguous area).
    #[inline]
    pub fn overlaps_or_abuts(&self, start: u64, end: u64) -> bool {
        self.start_sector <= end && start <= self.end_sector()
    }
}

/// Sentinel link for "no across-page area".
pub const NO_AIDX: u32 = u32::MAX;

/// The AMT: slotted storage with a free list so `AIdx` values stay stable
/// for the lifetime of an area, and the per-LPN links that name them.
#[derive(Debug, Clone)]
pub struct AcrossMapTable {
    slots: Vec<Option<AmtEntry>>,
    free: Vec<u32>,
    live: u64,
    created_total: u64,
    /// The area each LPN's data partly lives in, or [`NO_AIDX`]: the
    /// paper stores `AIdx` on the entries of *both* LPNs an area spans, so
    /// a read that touches only the second page still finds the area.
    /// Empty until [`Self::ensure_links`]: a scheme that is built and
    /// never driven costs no table.
    links: Vec<u32>,
    logical_pages: u64,
    spp: u32,
}

impl AcrossMapTable {
    /// An empty table over `logical_pages` LPNs of `spp` sectors each.
    pub fn new(logical_pages: u64, spp: u32) -> Self {
        AcrossMapTable {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            created_total: 0,
            links: Vec::new(),
            logical_pages,
            spp,
        }
    }

    /// Number of live areas.
    #[inline]
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Total areas ever created (Figure 8(a) denominator).
    #[inline]
    pub fn created_total(&self) -> u64 {
        self.created_total
    }

    /// Allocated slot count (live + free) — the table's memory footprint.
    #[inline]
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    /// Insert a new area and link the LPNs it spans, returning its stable
    /// `AIdx`.
    pub fn insert(&mut self, entry: AmtEntry) -> u32 {
        self.live += 1;
        self.created_total += 1;
        let aidx = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(entry);
            idx
        } else {
            self.slots.push(Some(entry));
            (self.slots.len() - 1) as u32
        };
        self.set_links(aidx, &entry, aidx);
        aidx
    }

    /// Insert an area at a specific `AIdx`. Crash recovery must reinstall
    /// each surviving area at the index it held before the cut: on-flash
    /// `AcrossData` pages reference their area by index through the OOB
    /// tag, and post-recovery GC resolves that tag against this table.
    ///
    /// Panics if the slot is already live.
    pub fn insert_at(&mut self, aidx: u32, entry: AmtEntry) {
        let idx = aidx as usize;
        if idx >= self.slots.len() {
            for gap in self.slots.len()..idx {
                self.free.push(gap as u32);
            }
            self.slots.resize(idx + 1, None);
        } else {
            assert!(self.slots[idx].is_none(), "insert_at over a live AMT slot");
            self.free.retain(|&f| f != aidx);
        }
        self.slots[idx] = Some(entry);
        self.live += 1;
        self.created_total += 1;
        self.set_links(aidx, &entry, aidx);
    }

    /// Look up a live area by index.
    #[inline]
    pub fn get(&self, aidx: u32) -> Option<AmtEntry> {
        self.slots.get(aidx as usize).copied().flatten()
    }

    /// Update an existing entry in place (AMerge keeps the same `AIdx`).
    /// The area keeps spanning the same LPNs, so its links stand.
    pub fn update(&mut self, aidx: u32, entry: AmtEntry) {
        let spp = self.spp;
        let slot = self.slots[aidx as usize]
            .as_mut()
            .expect("update of a dead AMT slot");
        debug_assert_eq!(
            (slot.first_lpn(spp), slot.last_lpn(spp)),
            (entry.first_lpn(spp), entry.last_lpn(spp)),
            "an update moved area {aidx} to other LPNs"
        );
        *slot = entry;
    }

    /// Remove an area and clear the links still naming it, freeing its
    /// slot for reuse.
    pub fn remove(&mut self, aidx: u32) -> AmtEntry {
        let e = self.slots[aidx as usize]
            .take()
            .expect("remove of a dead AMT slot");
        self.set_links(aidx, &e, NO_AIDX);
        self.free.push(aidx);
        self.live -= 1;
        e
    }

    /// Distinct areas linked from the LPNs in `[first, last]`, into `out`.
    #[inline]
    pub fn areas_touching(&self, first_lpn: u64, last_lpn: u64, out: &mut Vec<u32>) {
        out.clear();
        for lpn in first_lpn..=last_lpn {
            match self.links.get(lpn as usize) {
                Some(&aidx) if aidx != NO_AIDX && !out.contains(&aidx) => out.push(aidx),
                _ => {}
            }
        }
    }

    /// Hint the CPU to fetch `lpn`'s link ([`aftl_flash::prefetch()`]);
    /// nothing before the first area or past the table.
    #[inline]
    pub fn prefetch_link(&self, lpn: u64) {
        if let Some(link) = self.links.get(lpn as usize) {
            aftl_flash::prefetch(link);
        }
    }

    /// Size the link table, every LPN unlinked, unless it is sized. The
    /// scheme calls this on each request, beside the PMT's own sizing, so
    /// the table is built (and its pages faulted in) with the PMT, not in
    /// the middle of the first request that makes an area.
    #[inline]
    pub fn ensure_links(&mut self) {
        if self.links.is_empty() {
            self.links = vec![NO_AIDX; self.logical_pages as usize];
        }
    }

    /// Set the links of the LPNs area `aidx` (`entry`) spans to `to`:
    /// `aidx` itself to link them, [`NO_AIDX`] to clear the ones still
    /// linked.
    fn set_links(&mut self, aidx: u32, entry: &AmtEntry, to: u32) {
        self.ensure_links();
        for lpn in entry.first_lpn(self.spp)..=entry.last_lpn(self.spp) {
            if let Some(link) = self.links.get_mut(lpn as usize) {
                if to == aidx || *link == aidx {
                    *link = to;
                }
            }
        }
    }

    /// Iterate the live entries with their indices.
    pub fn iter_live(&self) -> impl Iterator<Item = (u32, &AmtEntry)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i as u32, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AcrossMapTable {
        /// Test oracle: every live area's in-range LPNs link to it, and every
        /// link names a live area whose span holds its LPN. Returns a
        /// description of the first divergence, if any.
        pub(crate) fn check_links(&self) -> Result<(), String> {
            let spp = self.spp;
            for (aidx, e) in self.iter_live() {
                for lpn in (e.first_lpn(spp)..=e.last_lpn(spp)).filter(|&l| l < self.logical_pages)
                {
                    let link = self.links.get(lpn as usize).copied().unwrap_or(NO_AIDX);
                    if link != aidx {
                        return Err(format!(
                            "lpn {lpn}: spanned by live area {aidx}, links to {link}"
                        ));
                    }
                }
            }
            for (lpn, &aidx) in (0u64..).zip(&self.links) {
                match (aidx, self.get(aidx)) {
                    (NO_AIDX, _) => {}
                    (_, None) => return Err(format!("lpn {lpn}: links to dead area {aidx}")),
                    (_, Some(e)) if !(e.first_lpn(spp)..=e.last_lpn(spp)).contains(&lpn) => {
                        return Err(format!(
                            "lpn {lpn}: links to area {aidx}, which does not span it"
                        ))
                    }
                    _ => {}
                }
            }
            Ok(())
        }
    }

    const SPP: u32 = 16;

    fn table() -> AcrossMapTable {
        AcrossMapTable::new(64, SPP)
    }

    fn entry(start: u64, size: u32) -> AmtEntry {
        AmtEntry {
            start_sector: start,
            size_sectors: size,
            appn: Ppn(1),
        }
    }

    #[test]
    fn figure5_entry_geometry() {
        // write(1028K, 6K): sectors 2056..2068, spanning LPNs 128/129.
        let e = entry(2056, 12);
        assert_eq!(e.first_lpn(SPP), 128);
        assert_eq!(e.last_lpn(SPP), 129);
        assert_eq!(e.end_sector(), 2068);
        assert!(e.contains(2060, 2068));
        assert!(!e.contains(2052, 2060));
        assert!(e.overlaps(2060, 2100));
        assert!(!e.overlaps(2068, 2100));
        assert!(e.overlaps_or_abuts(2068, 2100));
        assert!(!e.overlaps_or_abuts(2069, 2100));
    }

    fn touching(t: &AcrossMapTable, first: u64, last: u64) -> Vec<u32> {
        let mut out = Vec::new();
        t.areas_touching(first, last, &mut out);
        out
    }

    #[test]
    fn aidx_roundtrip() {
        let mut t = table();
        assert!(t.links.is_empty(), "no link table before the first area");
        assert_eq!(touching(&t, 0, 63), vec![]);
        // Sectors 40..52 span LPNs 2 and 3: both link to the area.
        let a = t.insert(entry(40, 12));
        assert_eq!(touching(&t, 2, 2), vec![a]);
        assert_eq!(touching(&t, 3, 3), vec![a]);
        assert_eq!(touching(&t, 1, 4), vec![a], "each area once");
        assert_eq!(touching(&t, 4, 63), vec![]);
        // Past the exported space nothing is linked.
        assert_eq!(touching(&t, 64, 65), vec![]);
        t.check_links().unwrap();
        t.remove(a);
        assert_eq!(touching(&t, 0, 63), vec![]);
        t.check_links().unwrap();
    }

    #[test]
    fn remove_clears_only_its_own_links() {
        let mut t = table();
        let a = t.insert(entry(40, 12)); // LPNs 2, 3
                                         // A second area over LPN 3 takes its link.
        let b = t.insert(entry(60, 8)); // LPNs 3, 4
        t.remove(a);
        assert_eq!(touching(&t, 2, 4), vec![b]);
        t.check_links().unwrap();
    }

    #[test]
    fn check_links_flags_a_stale_and_a_missing_link() {
        let mut t = table();
        let a = t.insert(entry(40, 12)); // LPNs 2, 3
        t.check_links().unwrap();
        t.links[3] = NO_AIDX;
        let err = t.check_links().unwrap_err();
        assert!(err.contains("lpn 3: spanned by live area"), "{err}");
        t.links[3] = a;
        t.links[5] = a;
        let err = t.check_links().unwrap_err();
        assert!(
            err.contains("lpn 5: links to area 0, which does not span"),
            "{err}"
        );
        t.links[5] = NO_AIDX;
        t.slots[a as usize] = None;
        let err = t.check_links().unwrap_err();
        assert!(err.contains("lpn 2: links to dead area 0"), "{err}");
    }

    #[test]
    fn slot_recycling_keeps_indices_stable() {
        let mut t = table();
        let a = t.insert(entry(0, 4));
        let b = t.insert(entry(100, 4));
        assert_ne!(a, b);
        assert_eq!(t.live(), 2);
        t.remove(a);
        assert_eq!(t.live(), 1);
        assert!(t.get(a).is_none());
        // Slot reused; `b` untouched.
        let c = t.insert(entry(200, 8));
        assert_eq!(c, a);
        assert_eq!(t.get(b).unwrap().start_sector, 100);
        assert_eq!(t.created_total(), 3);
    }

    #[test]
    fn update_in_place() {
        let mut t = table();
        // An AMerge's union: the area grows over the same two LPNs.
        let a = t.insert(entry(12, 6));
        t.update(a, entry(10, 10));
        assert_eq!(t.get(a).unwrap().size_sectors, 10);
        assert_eq!(t.created_total(), 1, "update is not a new area");
        t.check_links().unwrap();
    }

    #[test]
    fn iter_live_skips_freed() {
        let mut t = table();
        let a = t.insert(entry(0, 4));
        let b = t.insert(entry(50, 4));
        t.remove(a);
        let live: Vec<u32> = t.iter_live().map(|(i, _)| i).collect();
        assert_eq!(live, vec![b]);
    }

    #[test]
    fn insert_at_reproduces_indices_and_keeps_gaps_allocatable() {
        let mut t = table();
        // Reinstall areas at sparse pre-crash indices.
        t.insert_at(3, entry(300, 4));
        t.insert_at(1, entry(100, 4));
        assert_eq!(t.get(3).unwrap().start_sector, 300);
        assert_eq!(t.get(1).unwrap().start_sector, 100);
        assert_eq!(t.live(), 2);
        assert_eq!(t.capacity_slots(), 4);
        // The gap slots (0 and 2) are on the free list for later inserts,
        // and neither collides with the reinstalled areas.
        let a = t.insert(entry(0, 4));
        let b = t.insert(entry(200, 4));
        let mut fresh = vec![a, b];
        fresh.sort_unstable();
        assert_eq!(fresh, vec![0, 2]);
        assert_eq!(t.get(3).unwrap().start_sector, 300);
    }

    #[test]
    #[should_panic(expected = "insert_at over a live AMT slot")]
    fn insert_at_over_live_slot_panics() {
        let mut t = table();
        t.insert_at(0, entry(0, 4));
        t.insert_at(0, entry(50, 4));
    }

    #[test]
    #[should_panic]
    fn double_remove_panics() {
        let mut t = table();
        let a = t.insert(entry(0, 4));
        t.remove(a);
        t.remove(a);
    }
}
