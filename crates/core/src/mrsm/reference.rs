//! The hashed tables MRSM once used, kept as the reference its word-and-slab
//! tables are compared against: per LPN an append-only node slab
//! behind a `HashMap`, per PPN a free-list slab of inline four-entry
//! sets behind another. Same [`LpnMap`] nodes, same push / swap-remove
//! entry order within a set — only "where is this key's record" is answered
//! the old way, by hashing.

use super::{LpnMap, SubLoc, SUBS_PER_PAGE};
use aftl_flash::Ppn;
use std::collections::HashMap;

/// LPN → mapping-node table. MRSM never unmaps an LPN (nodes only convert
/// between page- and sub-mapped forms), so the node slab is append-only
/// and `len()` is the mapped-LPN count.
#[derive(Debug, Default)]
pub(super) struct RefLpnTable {
    index: HashMap<u64, u64>,
    lpns: Vec<u64>,
    nodes: Vec<LpnMap>,
}

impl RefLpnTable {
    pub(super) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(super) fn get(&self, lpn: u64) -> Option<&LpnMap> {
        self.index.get(&lpn).map(|&s| &self.nodes[s as usize])
    }

    /// Insert or overwrite `lpn`'s node.
    pub(super) fn set(&mut self, lpn: u64, node: LpnMap) {
        match self.index.get(&lpn).copied() {
            Some(s) => self.nodes[s as usize] = node,
            None => {
                self.index.insert(lpn, self.nodes.len() as u64);
                self.lpns.push(lpn);
                self.nodes.push(node);
            }
        }
    }

    /// Mutable node for `lpn`, creating an empty sub-mapped node if absent.
    fn get_or_insert(&mut self, lpn: u64) -> &mut LpnMap {
        let slot = match self.index.get(&lpn).copied() {
            Some(s) => s as usize,
            None => {
                let s = self.nodes.len();
                self.index.insert(lpn, s as u64);
                self.lpns.push(lpn);
                self.nodes.push(LpnMap::Sub([SubLoc::NONE; 4]));
                s
            }
        };
        &mut self.nodes[slot]
    }

    /// Point `lpn/sub` at `loc`, converting a page-mapped node to
    /// sub-mapped form if needed (the map half of `set_sub_loc`).
    pub(super) fn set_sub(&mut self, lpn: u64, sub: u32, loc: SubLoc) {
        let node = self.get_or_insert(lpn);
        let locs = match node {
            LpnMap::Page(p) => {
                let p = *p;
                let mut locs = [SubLoc::NONE; 4];
                for (j, l) in locs.iter_mut().enumerate() {
                    *l = SubLoc {
                        ppn: p,
                        slot: j as u8,
                    };
                }
                *node = LpnMap::Sub(locs);
                match node {
                    LpnMap::Sub(l) => l,
                    _ => unreachable!(),
                }
            }
            LpnMap::Sub(l) => l,
        };
        locs[sub as usize] = loc;
    }

    /// All `(lpn, node)` pairs (insertion order).
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, &LpnMap)> {
        self.lpns.iter().copied().zip(self.nodes.iter())
    }
}

/// Live sub-regions resident on one flash page — at most one per slot, so
/// the set fits inline with no heap allocation.
#[derive(Debug, Clone, Copy)]
pub(super) struct RefResidentSet {
    ppn: Ppn,
    len: u8,
    items: [(u64, u32); SUBS_PER_PAGE as usize],
}

impl RefResidentSet {
    pub(super) fn new(ppn: Ppn) -> Self {
        RefResidentSet {
            ppn,
            len: 0,
            items: [(0, 0); SUBS_PER_PAGE as usize],
        }
    }

    pub(super) fn as_slice(&self) -> &[(u64, u32)] {
        &self.items[..self.len as usize]
    }

    pub(super) fn push(&mut self, lpn: u64, sub: u32) {
        self.items[self.len as usize] = (lpn, sub);
        self.len += 1;
    }
}

/// Reverse map `Ppn` → [`RefResidentSet`]: a hashed index over a
/// slab with a free list (region pages empty out and are erased by GC, so
/// slots recycle).
#[derive(Debug, Default)]
pub(super) struct RefResidentTable {
    index: HashMap<u64, u64>,
    slots: Vec<RefResidentSet>,
    free: Vec<u32>,
}

impl RefResidentTable {
    pub(super) fn get(&self, ppn: Ppn) -> Option<&RefResidentSet> {
        self.index.get(&ppn.0).map(|&s| &self.slots[s as usize])
    }

    fn alloc_slot(&mut self, ppn: Ppn) -> usize {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = RefResidentSet::new(ppn);
                s as usize
            }
            None => {
                self.slots.push(RefResidentSet::new(ppn));
                self.slots.len() - 1
            }
        };
        self.index.insert(ppn.0, slot as u64);
        slot
    }

    /// Append `(lpn, sub)` to `ppn`'s set, creating the set if absent.
    pub(super) fn push(&mut self, ppn: Ppn, lpn: u64, sub: u32) {
        let slot = match self.index.get(&ppn.0).copied() {
            Some(s) => s as usize,
            None => self.alloc_slot(ppn),
        };
        self.slots[slot].push(lpn, sub);
    }

    /// Install a whole set under `ppn` (which must have none yet).
    pub(super) fn insert_set(&mut self, ppn: Ppn, mut set: RefResidentSet) {
        debug_assert!(!self.index.contains_key(&ppn.0));
        set.ppn = ppn;
        let slot = self.alloc_slot(ppn);
        self.slots[slot] = set;
    }

    /// Drop one `(lpn, sub)` entry (swap-remove). Returns whether the set
    /// emptied (and was removed); `None` if there is no such entry.
    pub(super) fn swap_remove_entry(&mut self, ppn: Ppn, lpn: u64, sub: u32) -> Option<bool> {
        let slot = self.index.get(&ppn.0).copied()? as usize;
        let set = &mut self.slots[slot];
        let pos = set
            .as_slice()
            .iter()
            .position(|&(l, s)| l == lpn && s == sub)?;
        set.items[pos] = set.items[set.len as usize - 1];
        set.len -= 1;
        if set.len == 0 {
            set.ppn = Ppn::INVALID;
            self.index.remove(&ppn.0);
            self.free.push(slot as u32);
            Some(true)
        } else {
            Some(false)
        }
    }

    /// Remove and return the whole set for `ppn`.
    pub(super) fn remove(&mut self, ppn: Ppn) -> Option<RefResidentSet> {
        let slot = self.index.remove(&ppn.0)? as usize;
        let set = self.slots[slot];
        self.slots[slot].ppn = Ppn::INVALID;
        self.free.push(slot as u32);
        Some(set)
    }

    /// Number of live sets.
    pub(super) fn len(&self) -> usize {
        self.index.len()
    }
}
