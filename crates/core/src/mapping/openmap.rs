//! A small open-addressed hash map from `u64` keys to `u64` values.
//!
//! The mapping cache sits on every host request's critical path; the std
//! `HashMap`'s SipHash plus per-entry boxing is measurable there. This map
//! is specialised for the cache's access pattern: dense `u64` keys
//! (translation-page ids), power-of-two tables, Fibonacci (multiplicative)
//! hashing, linear probing, tombstone deletion with a full rehash when live
//! entries plus tombstones fill the table — into a table twice the size
//! only if live entries are what filled it, so a map that churns keys at a
//! constant size stays that size. All operations are amortised O(1) with a
//! single flat allocation.

/// Slot states of the control array.
const EMPTY: u8 = 0;
const FULL: u8 = 1;
const TOMB: u8 = 2;

/// Fibonacci hashing multiplier (2^64 / φ, odd).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressed `u64 → u64` hash map. See module docs.
#[derive(Debug, Clone)]
pub struct OpenMap {
    ctrl: Vec<u8>,
    keys: Vec<u64>,
    vals: Vec<u64>,
    /// FULL slots.
    len: usize,
    /// FULL + TOMB slots (drives rehashing).
    used: usize,
    /// log2 of the table size.
    shift: u32,
}

impl Default for OpenMap {
    fn default() -> Self {
        Self::new()
    }
}

impl OpenMap {
    /// An empty map (one lazily grown allocation of 8 slots).
    pub fn new() -> Self {
        OpenMap {
            ctrl: vec![EMPTY; 8],
            keys: vec![0; 8],
            vals: vec![0; 8],
            len: 0,
            used: 0,
            shift: 3,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.ctrl.len() - 1
    }

    #[inline]
    fn start(&self, key: u64) -> usize {
        (key.wrapping_mul(MUL) >> (64 - self.shift)) as usize
    }

    /// Value stored for `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        let mask = self.mask();
        let mut i = self.start(key);
        loop {
            match self.ctrl[i] {
                EMPTY => return None,
                FULL if self.keys[i] == key => return Some(self.vals[i]),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Insert or update, returning the previous value if any.
    pub fn insert(&mut self, key: u64, val: u64) -> Option<u64> {
        // Keep FULL+TOMB below 3/4 so probes terminate quickly.
        if (self.used + 1) * 4 >= self.ctrl.len() * 3 {
            self.rehash();
        }
        let mask = self.mask();
        let mut i = self.start(key);
        let mut first_tomb = None;
        loop {
            match self.ctrl[i] {
                EMPTY => {
                    let dst = first_tomb.unwrap_or(i);
                    if self.ctrl[dst] == EMPTY {
                        self.used += 1;
                    }
                    self.ctrl[dst] = FULL;
                    self.keys[dst] = key;
                    self.vals[dst] = val;
                    self.len += 1;
                    return None;
                }
                FULL if self.keys[i] == key => {
                    return Some(std::mem::replace(&mut self.vals[i], val));
                }
                TOMB => {
                    first_tomb.get_or_insert(i);
                    i = (i + 1) & mask;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let mask = self.mask();
        let mut i = self.start(key);
        loop {
            match self.ctrl[i] {
                EMPTY => return None,
                FULL if self.keys[i] == key => {
                    self.ctrl[i] = TOMB;
                    self.len -= 1;
                    return Some(self.vals[i]);
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Rehash all live entries (tombstones drop out) into a fresh table:
    /// twice the size if live entries fill half of this one, the same size
    /// if it was mostly tombstones that brought it to the load limit.
    fn rehash(&mut self) {
        let new_shift = if self.len * 2 < self.ctrl.len() {
            self.shift
        } else {
            self.shift + 1
        };
        let new_cap = 1usize << new_shift;
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![EMPTY; new_cap]);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_cap]);
        self.shift = new_shift;
        self.used = self.len;
        let mask = self.mask();
        for (j, &c) in old_ctrl.iter().enumerate() {
            if c != FULL {
                continue;
            }
            let mut i = self.start(old_keys[j]);
            while self.ctrl[i] == FULL {
                i = (i + 1) & mask;
            }
            self.ctrl[i] = FULL;
            self.keys[i] = old_keys[j];
            self.vals[i] = old_vals[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = OpenMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, 70), None);
        assert_eq!(m.insert(7, 71), Some(70));
        assert_eq!(m.get(7), Some(71));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(7), Some(71));
        assert_eq!(m.remove(7), None);
        assert_eq!(m.get(7), None);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = OpenMap::new();
        for k in 0..10_000u64 {
            m.insert(k * 31, k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k * 31), Some(k), "key {k}");
        }
    }

    /// The mapping cache removes one key and inserts another per miss: the
    /// table must follow the resident set, not the miss count.
    #[test]
    fn churn_at_constant_size_does_not_grow_the_table() {
        let mut m = OpenMap::new();
        for k in 0..16u64 {
            m.insert(k, k);
        }
        for k in 16..100_016u64 {
            assert_eq!(m.remove(k - 16), Some(k - 16));
            assert_eq!(m.insert(k, k), None);
            assert_eq!(m.len(), 16);
        }
        assert!(m.ctrl.len() <= 64, "{} slots for 16 keys", m.ctrl.len());
        for k in 100_000..100_016u64 {
            assert_eq!(m.get(k), Some(k));
        }
    }

    #[test]
    fn tombstones_do_not_break_probe_chains() {
        let mut m = OpenMap::new();
        // Build a long probe chain, then punch holes in the middle.
        for k in 0..64u64 {
            m.insert(k, k);
        }
        for k in (0..64u64).step_by(2) {
            assert_eq!(m.remove(k), Some(k));
        }
        for k in (1..64u64).step_by(2) {
            assert_eq!(m.get(k), Some(k), "odd key {k} survives");
        }
        // Reinsert into tombstoned territory.
        for k in (0..64u64).step_by(2) {
            assert_eq!(m.insert(k, k + 100), None);
        }
        assert_eq!(m.len(), 64);
        assert_eq!(m.get(10), Some(110));
    }

    #[test]
    fn matches_std_hashmap_under_random_churn() {
        let mut m = OpenMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for step in 0..50_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 512; // small key space → heavy churn
            match state % 3 {
                0 => assert_eq!(m.insert(key, step), reference.insert(key, step)),
                1 => assert_eq!(m.remove(key), reference.remove(&key)),
                _ => assert_eq!(m.get(key), reference.get(&key).copied()),
            }
            assert_eq!(m.len(), reference.len());
        }
    }
}
