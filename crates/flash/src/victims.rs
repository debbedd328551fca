//! Incrementally maintained GC victim index.
//!
//! Garbage collection wants the *fullest-of-invalid* closed block. Scanning
//! every block summary on each episode is O(total blocks); instead the
//! [`crate::array::FlashArray`] keeps this index up to date on every page
//! program / invalidate / block erase / retire event, so an episode starts
//! from the candidate set directly.
//!
//! A block is **indexed** exactly when it could be erased for profit:
//! fully programmed, at least one invalid page, not retired, not held by
//! GC (below). (Whether it is an allocator-*active* block is allocator
//! state, filtered at selection time — a full block can never be active
//! for long anyway.)
//!
//! The structure is a classic bucket index: `buckets[i]` holds the global
//! ids of indexed blocks with exactly `i` invalid pages, and two dense
//! per-block arrays record where each block sits so every maintenance event
//! is O(1) (`swap_remove` + push). The greediest candidates are the highest
//! non-empty bucket ([`VictimIndex::peek_best`] names its level); a greedy
//! collector reads one bucket at a time ([`VictimIndex::bucket`], O(that
//! bucket)), and full enumeration ([`VictimIndex::for_each`]) is
//! O(candidates), not O(blocks).
//!
//! A victim GC is draining is **held**
//! ([`crate::array::FlashArray::hold_victim`]): out of its bucket from the
//! moment GC captures its valid pages until it is erased or retired. Every
//! copy invalidates one of its pages, and a held block takes those without
//! a bucket move ([`VictimIndex::upsert`] leaves it alone) — it is about to
//! be erased, so its rank no longer matters. A held block is not indexed:
//! [`VictimIndex::len`], [`VictimIndex::invalid_of`] and the buckets leave
//! it out. It keeps its entry stamp, so an episode dropped
//! mid-victim ([`crate::array::FlashArray::release_victim`]) puts it back
//! exactly as it was taken, apart from the invalid pages it gained, and
//! without advancing [`VictimIndex::tick`].

use crate::block::BlockAddr;

/// Sentinel for "not indexed" in the per-block position arrays.
const NONE: u32 = u32::MAX;

/// `bucket_of` sentinel for a held block (see module docs).
const HELD: u32 = u32::MAX - 1;

/// Bucketed-by-invalid-count index of erase candidates. See module docs.
#[derive(Debug, Clone)]
pub struct VictimIndex {
    blocks_per_plane: u32,
    /// Bucket (= invalid count) each global block currently sits in,
    /// [`HELD`], or [`NONE`].
    bucket_of: Vec<u32>,
    /// Position of each global block inside its bucket's vector.
    pos_in_bucket: Vec<u32>,
    /// `buckets[i]` = global block ids with exactly `i` invalid pages.
    /// Index 0 exists but stays empty (no profit in erasing it).
    buckets: Vec<Vec<u32>>,
    /// Highest bucket that might be non-empty (lazily decayed in
    /// [`Self::peek_best`]).
    top: usize,
    /// Indexed blocks.
    len: usize,
    /// Age stamp per global block: the [`Self::tick`] value at which the
    /// block *entered* the index (first invalid page after filling).
    /// Preserved across bucket moves, overwritten on re-entry after an
    /// erase, so a smaller stamp means a colder candidate — the signal
    /// cost-benefit and windowed victim policies use as "age". Kept while
    /// a block is held; stale for other unindexed blocks.
    stamp: Vec<u64>,
    /// Monotonic insertion counter feeding [`Self::stamp`]. Logical (event
    /// count, not nanoseconds), so candidate ages are a pure function of
    /// the request stream and every run stays deterministic.
    tick: u64,
}

impl VictimIndex {
    /// An empty index for `total_blocks` blocks of `pages_per_block` pages,
    /// `blocks_per_plane` per plane.
    pub fn new(total_blocks: u64, blocks_per_plane: u32, pages_per_block: u32) -> Self {
        VictimIndex {
            blocks_per_plane,
            bucket_of: vec![NONE; total_blocks as usize],
            pos_in_bucket: vec![NONE; total_blocks as usize],
            buckets: vec![Vec::new(); pages_per_block as usize + 1],
            top: 0,
            len: 0,
            stamp: vec![0; total_blocks as usize],
            tick: 0,
        }
    }

    /// Global id of a block address.
    #[inline]
    pub fn global_id(&self, addr: BlockAddr) -> usize {
        (addr.plane_idx * u64::from(self.blocks_per_plane) + u64::from(addr.block)) as usize
    }

    #[inline]
    fn addr_of(&self, gid: u32) -> BlockAddr {
        BlockAddr {
            plane_idx: u64::from(gid / self.blocks_per_plane),
            block: gid % self.blocks_per_plane,
        }
    }

    /// Number of indexed candidate blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no block is currently an erase candidate.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether global block `gid` sits in a bucket.
    #[inline]
    fn indexed(&self, gid: usize) -> bool {
        self.bucket_of[gid] < HELD
    }

    /// Invalid-page count the index holds for `addr`, if indexed.
    #[inline]
    pub fn invalid_of(&self, addr: BlockAddr) -> Option<u32> {
        let gid = self.global_id(addr);
        self.indexed(gid).then_some(self.bucket_of[gid])
    }

    /// Age stamp of `addr` (insertion tick at which it became a
    /// candidate), if indexed. Smaller = older.
    #[inline]
    pub fn stamp_of(&self, addr: BlockAddr) -> Option<u64> {
        let gid = self.global_id(addr);
        self.indexed(gid).then(|| self.stamp[gid])
    }

    /// Whether GC holds `addr` out of the index (see module docs).
    #[inline]
    pub fn is_held(&self, addr: BlockAddr) -> bool {
        self.bucket_of[self.global_id(addr)] == HELD
    }

    /// Current insertion tick — the "now" against which candidate ages are
    /// measured (`tick() - stamp_of(addr)`).
    #[inline]
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Insert `addr` with `invalid` invalid pages, or move it to the new
    /// bucket if already indexed. O(1); no-op on a held block.
    pub fn upsert(&mut self, addr: BlockAddr, invalid: u32) {
        debug_assert!(invalid > 0, "zero-profit blocks are not indexed");
        let gid = self.global_id(addr) as u32;
        let cur = self.bucket_of[gid as usize];
        if cur == invalid || cur == HELD {
            return;
        }
        if cur != NONE {
            self.detach(gid);
        } else {
            self.len += 1;
            self.stamp[gid as usize] = self.tick;
            self.tick += 1;
        }
        self.attach(gid, invalid);
    }

    /// Remove `addr` from the index (erase, retire, or no longer a
    /// candidate), or end its hold. O(1); no-op when neither.
    pub fn remove(&mut self, addr: BlockAddr) {
        let gid = self.global_id(addr) as u32;
        if self.indexed(gid as usize) {
            self.detach(gid);
            self.len -= 1;
        }
        self.bucket_of[gid as usize] = NONE;
        self.pos_in_bucket[gid as usize] = NONE;
    }

    /// Take indexed block `addr` out of its bucket while GC drains it,
    /// keeping its stamp (see module docs). O(1).
    pub(crate) fn hold(&mut self, addr: BlockAddr) {
        let gid = self.global_id(addr) as u32;
        debug_assert!(
            self.indexed(gid as usize),
            "{addr:?}: held while not indexed"
        );
        self.detach(gid);
        self.len -= 1;
        self.bucket_of[gid as usize] = HELD;
        self.pos_in_bucket[gid as usize] = NONE;
    }

    /// Give held block `addr` back at its entry stamp, in the bucket for
    /// its current `invalid` count; the tick does not advance. O(1); no-op
    /// when `addr` is not held.
    pub(crate) fn release(&mut self, addr: BlockAddr, invalid: u32) {
        let gid = self.global_id(addr) as u32;
        if self.bucket_of[gid as usize] == HELD {
            self.len += 1;
            self.attach(gid, invalid);
        }
    }

    /// Push `gid` onto bucket `invalid`, recording where it sits.
    fn attach(&mut self, gid: u32, invalid: u32) {
        let bucket = &mut self.buckets[invalid as usize];
        self.bucket_of[gid as usize] = invalid;
        self.pos_in_bucket[gid as usize] = bucket.len() as u32;
        bucket.push(gid);
        self.top = self.top.max(invalid as usize);
    }

    /// Unlink `gid` from its current bucket, fixing the swapped-in entry's
    /// position. Leaves `bucket_of`/`pos_in_bucket[gid]` stale — callers
    /// overwrite them.
    fn detach(&mut self, gid: u32) {
        let bucket_idx = self.bucket_of[gid as usize] as usize;
        let pos = self.pos_in_bucket[gid as usize] as usize;
        let bucket = &mut self.buckets[bucket_idx];
        bucket.swap_remove(pos);
        if let Some(&moved) = bucket.get(pos) {
            self.pos_in_bucket[moved as usize] = pos as u32;
        }
    }

    /// The greedy victim: a block in the highest non-empty bucket, with its
    /// invalid count. Amortised O(1) — `top` only decays here.
    pub fn peek_best(&mut self) -> Option<(BlockAddr, u32)> {
        while self.top > 0 && self.buckets[self.top].is_empty() {
            self.top -= 1;
        }
        if self.top == 0 {
            return None;
        }
        let gid = self.buckets[self.top][0];
        Some((self.addr_of(gid), self.top as u32))
    }

    /// The candidates holding exactly `invalid` invalid pages (at most
    /// `pages_per_block`), each with its age stamp, unordered. O(bucket).
    pub fn bucket(&self, invalid: u32) -> impl Iterator<Item = (BlockAddr, u64)> + '_ {
        self.buckets[invalid as usize]
            .iter()
            .map(|&gid| (self.addr_of(gid), self.stamp[gid as usize]))
    }

    /// Visit every candidate as `(invalid, addr, stamp)`, unordered.
    /// O(candidates).
    pub fn for_each(&self, mut f: impl FnMut(u32, BlockAddr, u64)) {
        for invalid in 1..self.buckets.len() as u32 {
            for (addr, stamp) in self.bucket(invalid) {
                f(invalid, addr, stamp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(plane_idx: u64, block: u32) -> BlockAddr {
        BlockAddr { plane_idx, block }
    }

    #[test]
    fn upsert_moves_between_buckets() {
        let mut v = VictimIndex::new(8, 4, 8);
        v.upsert(addr(0, 1), 3);
        v.upsert(addr(1, 0), 5);
        assert_eq!(v.len(), 2);
        assert_eq!(v.peek_best(), Some((addr(1, 0), 5)));
        v.upsert(addr(0, 1), 7);
        assert_eq!(v.len(), 2, "move, not duplicate");
        assert_eq!(v.peek_best(), Some((addr(0, 1), 7)));
        assert_eq!(v.invalid_of(addr(0, 1)), Some(7));
    }

    #[test]
    fn remove_is_idempotent_and_fixes_positions() {
        let mut v = VictimIndex::new(8, 4, 8);
        v.upsert(addr(0, 0), 2);
        v.upsert(addr(0, 1), 2);
        v.upsert(addr(0, 2), 2);
        v.remove(addr(0, 0)); // swap_remove moves the tail into slot 0
        v.remove(addr(0, 0));
        assert_eq!(v.len(), 2);
        // The moved entry must still be removable through its new position.
        v.remove(addr(0, 2));
        v.remove(addr(0, 1));
        assert!(v.is_empty());
        assert_eq!(v.peek_best(), None);
    }

    #[test]
    fn top_decays_after_removals() {
        let mut v = VictimIndex::new(8, 4, 8);
        v.upsert(addr(0, 0), 8);
        v.upsert(addr(0, 1), 1);
        assert_eq!(v.peek_best().unwrap().1, 8);
        v.remove(addr(0, 0));
        assert_eq!(v.peek_best(), Some((addr(0, 1), 1)));
    }

    #[test]
    fn stamps_record_entry_order_and_survive_bucket_moves() {
        let mut v = VictimIndex::new(8, 4, 8);
        v.upsert(addr(0, 1), 2);
        v.upsert(addr(1, 0), 1);
        assert_eq!(v.stamp_of(addr(0, 1)), Some(0), "first entrant");
        assert_eq!(v.stamp_of(addr(1, 0)), Some(1), "second entrant");
        // Moving buckets (more invalid pages) keeps the entry stamp.
        v.upsert(addr(0, 1), 6);
        assert_eq!(v.stamp_of(addr(0, 1)), Some(0));
        assert_eq!(v.tick(), 2);
        // Leaving and re-entering gets a fresh (newer) stamp.
        v.remove(addr(0, 1));
        assert_eq!(v.stamp_of(addr(0, 1)), None);
        v.upsert(addr(0, 1), 1);
        assert_eq!(v.stamp_of(addr(0, 1)), Some(2));
    }

    #[test]
    fn hold_then_release_keeps_stamp_tick_len_and_best() {
        let mut v = VictimIndex::new(8, 4, 8);
        v.upsert(addr(0, 1), 6);
        v.upsert(addr(1, 0), 3);
        v.upsert(addr(1, 2), 6);
        let (tick, len, best) = (v.tick(), v.len(), v.peek_best());
        assert_eq!(best, Some((addr(0, 1), 6)));

        v.hold(addr(0, 1));
        assert!(v.is_held(addr(0, 1)));
        assert_eq!(
            (v.len(), v.invalid_of(addr(0, 1))),
            (2, None),
            "held = not indexed"
        );
        assert_eq!(v.stamp_of(addr(0, 1)), None);
        // Invalidations while held move nothing.
        v.upsert(addr(0, 1), 7);
        assert_eq!(v.invalid_of(addr(0, 1)), None);
        assert_eq!(v.peek_best(), Some((addr(1, 2), 6)));

        v.release(addr(0, 1), 6);
        assert!(!v.is_held(addr(0, 1)));
        assert_eq!(v.stamp_of(addr(0, 1)), Some(0), "the entry stamp survives");
        assert_eq!((v.tick(), v.len()), (tick, len), "no new entry");
        v.remove(addr(1, 2)); // bucket order is not rank: leave one block at 6
        assert_eq!(v.peek_best(), best);
        v.release(addr(0, 1), 2);
        assert_eq!(
            v.invalid_of(addr(0, 1)),
            Some(6),
            "release of an indexed block is a no-op"
        );

        // A hold ends at erase or retirement.
        v.hold(addr(0, 1));
        v.remove(addr(0, 1));
        assert!(!v.is_held(addr(0, 1)));
        v.release(addr(0, 1), 6);
        assert_eq!((v.len(), v.stamp_of(addr(0, 1))), (1, None));
    }

    #[test]
    fn for_each_enumerates_all_candidates() {
        let mut v = VictimIndex::new(16, 8, 8);
        v.upsert(addr(0, 3), 1);
        v.upsert(addr(1, 2), 4);
        v.upsert(addr(1, 5), 4);
        let mut seen = Vec::new();
        v.for_each(|inv, a, stamp| seen.push((inv, a.plane_idx, a.block, stamp)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 0, 3, 0), (4, 1, 2, 1), (4, 1, 5, 2)]);
        // One level at a time: the same entries, and nothing at the others.
        let mut level4: Vec<_> = v.bucket(4).collect();
        level4.sort_unstable_by_key(|&(_, stamp)| stamp);
        assert_eq!(level4, vec![(addr(1, 2), 1), (addr(1, 5), 2)]);
        assert_eq!(v.bucket(1).collect::<Vec<_>>(), vec![(addr(0, 3), 0)]);
        assert_eq!(v.bucket(8).count(), 0);
    }
}
