//! DFTL-style DRAM mapping cache.
//!
//! Mapping entries are grouped into **translation pages** (one flash page's
//! worth of entries). The DRAM cache holds a bounded number of translation
//! pages; a miss loads the page from flash (a Map read in Figure 10(b)) and
//! a dirty eviction flushes it (a Map write in Figure 10(a)). The baseline
//! FTL's table fits entirely in the cache, so it shows no Map traffic —
//! matching the paper's presentation; MRSM's 2.4× table thrashes (the paper
//! reports only 42.1 % resident) and Across-FTL's 1.4× table spills mildly.

use aftl_flash::{Allocator, FlashArray, Nanos, PageKind, Ppn, Result, StreamId};
use serde::{Deserialize, Serialize};

use super::pmt::{pack_ppn, unpack_ppn};

/// Cache event counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Translation-page touches.
    pub lookups: u64,
    /// Lookups that hit a resident translation page.
    pub hits: u64,
    /// Lookups that had to load a translation page.
    pub misses: u64,
    /// Translation-page loads from flash (Map reads).
    pub loads: u64,
    /// Dirty translation-page evictions flushed to flash (Map writes).
    pub flushes: u64,
}

impl CacheStats {
    /// Accumulate another device's cache statistics into this one
    /// (fleet-level aggregation; every field is a plain sum).
    pub fn merge(&mut self, o: &CacheStats) {
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.misses += o.misses;
        self.loads += o.loads;
        self.flushes += o.flushes;
    }
}

/// Sentinel for "none": a list link, a [`Tpage`]'s slot or flash copy.
const NIL: u32 = u32::MAX;

/// A translation page's slab slot while resident and flash copy once flushed.
#[derive(Debug, Clone, Copy)]
struct Tpage {
    slot: u32,
    ppn: u32,
}

const NO_TPAGE: Tpage = Tpage {
    slot: NIL,
    ppn: NIL,
};

/// One resident translation page: a slab entry doubly linked into the LRU
/// list (head = most recent, tail = eviction victim).
#[derive(Debug, Clone, Copy)]
struct Entry {
    tpid: u64,
    dirty: bool,
    prev: u32,
    next: u32,
}

/// A bounded LRU cache of translation pages, spilling to flash.
///
/// Translation-page ids (`tpid`) are scheme-defined and dense: a scheme's
/// tables (e.g. Across-FTL's PMT + AMT) take disjoint dense tpid ranges
/// starting at 0.
///
/// Internals: resident pages live in a slab (`entries` + `free`) threaded
/// into an intrusive doubly-linked LRU list; an 8-byte `Tpage` record
/// per tpid, grown on demand, holds its slab slot and flash copy. A hit is
/// one indexed load and four link writes; eviction pops the list tail, in
/// exactly the old stamp-ordered (ordered-map) implementation's order.
#[derive(Debug, Clone)]
pub struct MapCache {
    capacity_tpages: usize,
    entries: Vec<Entry>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// Per-tpid slab slot and flash copy, indexed by tpid.
    tpages: Vec<Tpage>,
    /// Records with a flash copy.
    flash_tpages: usize,
    stats: CacheStats,
    /// Bumped whenever an eviction recycles a slab slot — lets the
    /// pipelined [`super::engine::MapEngine`] detect that slots cached in
    /// its resolution window may have been reassigned.
    eviction_gen: u64,
}

impl MapCache {
    /// A cache holding at most `capacity_tpages` translation pages.
    /// Memory is grown on demand, so an effectively unbounded capacity
    /// costs nothing up front.
    pub fn new(capacity_tpages: usize) -> Self {
        MapCache {
            capacity_tpages: capacity_tpages.max(1),
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            tpages: Vec::new(),
            flash_tpages: 0,
            stats: CacheStats::default(),
            eviction_gen: 0,
        }
    }

    /// An effectively unbounded cache (baseline FTL: whole table resident).
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Cumulative event counters.
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Translation pages currently resident in DRAM.
    #[inline]
    pub fn resident_tpages(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Configured capacity in translation pages.
    #[inline]
    pub fn capacity_tpages(&self) -> usize {
        self.capacity_tpages
    }

    /// Touch translation page `tpid`, loading it from flash on a miss and
    /// evicting the LRU page if the cache is full. Returns the time the
    /// mapping information is available: `now` + one DRAM access on a hit;
    /// on a miss, the later of the translation-page load and the dirty
    /// victim's write-back (the slot must be clean before it is reused —
    /// the DFTL behaviour that makes cache-thrashing schemes like MRSM pay
    /// for their table size on the host path).
    pub fn access(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        tpid: u64,
        make_dirty: bool,
    ) -> Result<Nanos> {
        self.stats.lookups += 1;
        let cache_ns = array.timing().cache_access_ns;

        let Tpage { slot, ppn } = self.tpage(tpid);
        if slot != NIL {
            self.stats.hits += 1;
            self.touch(slot);
            self.entries[slot as usize].dirty |= make_dirty;
            return Ok(now + cache_ns);
        }

        self.stats.misses += 1;
        // Make room; a dirty victim's write-back gates slot reuse.
        let mut ready = now + cache_ns;
        while self.resident_tpages() >= self.capacity_tpages {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "cache full ⇒ lru nonempty");
            let (victim_tpid, victim_dirty) = {
                let e = &self.entries[victim as usize];
                (e.tpid, e.dirty)
            };
            self.unlink(victim);
            self.free.push(victim);
            self.tpages[victim_tpid as usize].slot = NIL;
            self.eviction_gen += 1;
            if victim_dirty {
                let done = self.flush_tpage(array, alloc, now, victim_tpid)?;
                ready = ready.max(done);
            }
        }

        // Load from flash if a copy exists; first-touch pages materialise
        // in DRAM directly (dirty, so they eventually reach flash). A load
        // that exhausts the retry ladder only costs time: the mapping is
        // rebuilt from the in-DRAM tables (OOB scan in a real device) and
        // the page is re-marked dirty so a fresh copy reaches flash.
        let mut dirty = make_dirty;
        if ppn != NIL {
            let r =
                array.read_with_retry(unpack_ppn(ppn), array.geometry().page_bytes, now, now)?;
            if r.is_lost() {
                dirty = true;
            }
            self.stats.loads += 1;
            ready = ready.max(r.complete_ns());
        } else {
            dirty = true;
        }
        let slot = self.alloc_slot(tpid, dirty);
        self.push_front(slot);
        self.tpage_mut(tpid).slot = slot;
        Ok(ready)
    }

    /// Generation counter of slab-slot recycling (see `eviction_gen`).
    #[inline]
    pub fn eviction_generation(&self) -> u64 {
        self.eviction_gen
    }

    /// Slab slot of the most recently touched resident page (the LRU
    /// head). Valid immediately after [`Self::access`] returned — the
    /// accessed page is always moved to the head — so the pipelined
    /// engine can remember the slot without a second index lookup.
    #[inline]
    pub fn mru_slot(&self) -> u32 {
        self.head
    }

    /// Re-touch a page known to be resident at `slot`: exactly the hit
    /// path of [`Self::access`] minus the index lookup. Counters and LRU
    /// movement are identical to a hit, so pipelined coalescing leaves
    /// cache statistics and future eviction order bit-identical to the
    /// serial execution. `tpid` is a debug cross-check only.
    #[inline]
    pub fn touch_resident(
        &mut self,
        timing: &aftl_flash::TimingSpec,
        now: Nanos,
        slot: u32,
        tpid: u64,
        make_dirty: bool,
    ) -> Nanos {
        debug_assert_eq!(
            self.entries[slot as usize].tpid, tpid,
            "stale window slot: engine must revalidate on eviction"
        );
        let _ = tpid;
        self.stats.lookups += 1;
        self.stats.hits += 1;
        self.touch(slot);
        self.entries[slot as usize].dirty |= make_dirty;
        now + timing.cache_access_ns
    }

    /// `tpid`'s record; a tpid past the table's end has none.
    fn tpage(&self, tpid: u64) -> Tpage {
        self.tpages.get(tpid as usize).copied().unwrap_or(NO_TPAGE)
    }

    /// `tpid`'s record, growing the table to hold it.
    fn tpage_mut(&mut self, tpid: u64) -> &mut Tpage {
        if self.tpages.len() <= tpid as usize {
            self.tpages.resize(tpid as usize + 1, NO_TPAGE);
        }
        &mut self.tpages[tpid as usize]
    }

    // ---- intrusive LRU list plumbing ----------------------------------

    /// Claim a slab slot for a new resident entry (links unset).
    fn alloc_slot(&mut self, tpid: u64, dirty: bool) -> u32 {
        let e = Entry {
            tpid,
            dirty,
            prev: NIL,
            next: NIL,
        };
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = e;
                slot
            }
            None => {
                self.entries.push(e);
                (self.entries.len() - 1) as u32
            }
        }
    }

    /// Detach `slot` from the LRU list.
    fn unlink(&mut self, slot: u32) {
        let Entry { prev, next, .. } = self.entries[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.entries[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.entries[next as usize].prev = prev;
        }
    }

    /// Link `slot` at the head (most recently used).
    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let e = &mut self.entries[slot as usize];
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.entries[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Move `slot` to the head (a hit).
    fn touch(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    /// Write a translation page to flash, returning the program completion.
    fn flush_tpage(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        tpid: u64,
    ) -> Result<Nanos> {
        let (new_ppn, out) = array.program_relocating(
            alloc,
            None,
            StreamId::Map,
            PageKind::Map,
            tpid,
            array.geometry().page_bytes,
            now,
            now,
        )?;
        match std::mem::replace(&mut self.tpage_mut(tpid).ppn, pack_ppn(new_ppn)) {
            NIL => self.flash_tpages += 1,
            old => array.invalidate(unpack_ppn(old))?,
        }
        self.stats.flushes += 1;
        Ok(out.complete_ns)
    }

    /// Flush every dirty resident page (used when draining at shutdown in
    /// tests; the paper's runs never drain). Pages flush in LRU→MRU order
    /// (deterministic, unlike the old hash-iteration order).
    pub fn flush_all(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
    ) -> Result<()> {
        let mut slot = self.tail;
        while slot != NIL {
            let (tpid, dirty, prev) = {
                let e = &self.entries[slot as usize];
                (e.tpid, e.dirty, e.prev)
            };
            if dirty {
                self.flush_tpage(array, alloc, now, tpid)?;
                self.entries[slot as usize].dirty = false;
            }
            slot = prev;
        }
        Ok(())
    }

    /// GC migrated the flash copy of translation page `tpid` (its OOB tag)
    /// from `old` to `new`.
    pub fn note_migrated(&mut self, tpid: u64, new_ppn: Ppn) {
        self.tpage_mut(tpid).ppn = pack_ppn(new_ppn);
    }

    /// Number of translation pages that currently have a flash copy.
    pub fn flash_tpages(&self) -> usize {
        self.flash_tpages
    }

    /// Whether touching `tpid` right now would issue a map-in flash read
    /// (not resident, but a translation page exists on flash) — the
    /// "double read" a verified learned prediction avoids. Non-mutating:
    /// no counters tick and no LRU state moves.
    pub fn would_load(&self, tpid: u64) -> bool {
        matches!(self.tpage(tpid), Tpage { slot: NIL, ppn } if ppn != NIL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_flash::{Geometry, TimingSpec};

    fn setup() -> (FlashArray, Allocator) {
        let array = FlashArray::new(Geometry::tiny(), TimingSpec::unit()).unwrap();
        let alloc = Allocator::new(&array);
        (array, alloc)
    }

    #[test]
    fn hits_cost_one_dram_access() {
        let (mut array, mut alloc) = setup();
        let mut c = MapCache::new(4);
        c.access(&mut array, &mut alloc, 0, 1, false).unwrap();
        let ready = c.access(&mut array, &mut alloc, 100, 1, false).unwrap();
        assert_eq!(ready, 100 + array.timing().cache_access_ns);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().loads, 0, "first touch needs no flash load");
    }

    #[test]
    fn dirty_eviction_flushes_then_reload_reads() {
        let (mut array, mut alloc) = setup();
        let mut c = MapCache::new(1);
        c.access(&mut array, &mut alloc, 0, 1, true).unwrap();
        // Evicts tpage 1 (dirty → flush).
        c.access(&mut array, &mut alloc, 0, 2, false).unwrap();
        assert_eq!(c.stats().flushes, 1);
        assert_eq!(array.stats().programs.map, 1);
        // Re-access tpage 1 → flash load.
        c.access(&mut array, &mut alloc, 0, 1, false).unwrap();
        assert_eq!(c.stats().loads, 1);
        assert_eq!(array.stats().reads.map, 1);
    }

    #[test]
    fn clean_eviction_is_free() {
        let (mut array, mut alloc) = setup();
        let mut c = MapCache::new(1);
        c.access(&mut array, &mut alloc, 0, 1, true).unwrap(); // 1 dirty
        c.access(&mut array, &mut alloc, 0, 2, false).unwrap(); // flush 1; 2 dirty (first touch)
        assert_eq!(c.stats().flushes, 1);
        c.access(&mut array, &mut alloc, 0, 1, false).unwrap(); // flush 2; reload 1 CLEAN
        assert_eq!(c.stats().flushes, 2);
        assert_eq!(c.stats().loads, 1);
        // Evicting the clean tpage 1 costs no flush.
        c.access(&mut array, &mut alloc, 0, 3, false).unwrap();
        assert_eq!(c.stats().flushes, 2, "clean eviction must not flush");
    }

    #[test]
    fn reflush_invalidates_old_copy() {
        let (mut array, mut alloc) = setup();
        let mut c = MapCache::new(1);
        for round in 0..3 {
            c.access(&mut array, &mut alloc, 0, 1, true).unwrap();
            c.access(&mut array, &mut alloc, 0, 2, true).unwrap();
            let _ = round;
        }
        // tpage 1 flushed repeatedly; only one valid Map copy at a time:
        assert!(c.stats().flushes >= 3);
        assert_eq!(c.flash_tpages(), 2);
    }

    #[test]
    fn unbounded_cache_never_spills() {
        let (mut array, mut alloc) = setup();
        let mut c = MapCache::unbounded();
        for tp in 0..100 {
            c.access(&mut array, &mut alloc, 0, tp, true).unwrap();
        }
        assert_eq!(c.stats().flushes, 0);
        assert_eq!(c.stats().loads, 0);
        assert_eq!(c.resident_tpages(), 100);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (mut array, mut alloc) = setup();
        let mut c = MapCache::new(2);
        c.access(&mut array, &mut alloc, 0, 1, false).unwrap();
        c.access(&mut array, &mut alloc, 0, 2, false).unwrap();
        c.access(&mut array, &mut alloc, 0, 1, false).unwrap(); // refresh 1
        c.access(&mut array, &mut alloc, 0, 3, false).unwrap(); // evicts 2
        let misses_before = c.stats().misses;
        c.access(&mut array, &mut alloc, 0, 1, false).unwrap(); // still resident
        assert_eq!(c.stats().misses, misses_before);
        c.access(&mut array, &mut alloc, 0, 2, false).unwrap(); // miss
        assert_eq!(c.stats().misses, misses_before + 1);
    }

    #[test]
    fn flush_all_writes_only_dirty() {
        let (mut array, mut alloc) = setup();
        let mut c = MapCache::new(8);
        c.access(&mut array, &mut alloc, 0, 1, true).unwrap();
        c.access(&mut array, &mut alloc, 0, 2, true).unwrap();
        c.flush_all(&mut array, &mut alloc, 0).unwrap();
        assert_eq!(c.stats().flushes, 2);
        // Second drain: nothing dirty.
        c.flush_all(&mut array, &mut alloc, 0).unwrap();
        assert_eq!(c.stats().flushes, 2);
    }
}
