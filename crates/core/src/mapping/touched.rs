//! Dense bit set over translation-page ids.
//!
//! Every mapping access records which translation page it touched so the
//! schemes can report mapping-table footprint (Figure 12a). Translation-page
//! ids are small and dense — `lpn / entries_per_tpage` — so a growable bit
//! vector replaces the former hashed set and its per-access SipHash.

/// Growable bit set counting distinct small `u64` ids.
#[derive(Debug, Clone, Default)]
pub struct TouchedSet {
    words: Vec<u64>,
    count: u64,
}

impl TouchedSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark `id` as touched.
    #[inline]
    pub fn insert(&mut self, id: u64) {
        let word = (id >> 6) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (id & 63);
        let w = &mut self.words[word];
        if *w & bit == 0 {
            *w |= bit;
            self.count += 1;
        }
    }

    /// Number of distinct ids inserted.
    #[inline]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no id has been inserted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn counts_distinct_ids() {
        let mut s = TouchedSet::new();
        assert!(s.is_empty());
        for id in [0u64, 1, 63, 64, 65, 1, 0, 1000, 63] {
            s.insert(id);
        }
        assert_eq!(s.len(), 6);
        assert!(!s.is_empty());
    }

    #[test]
    fn matches_hashset_under_random_inserts() {
        let mut s = TouchedSet::new();
        let mut reference = HashSet::new();
        let mut state = 0xDEAD_BEEF_u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = (state >> 33) % 4096;
            s.insert(id);
            reference.insert(id);
            assert_eq!(s.len(), reference.len() as u64);
        }
    }
}
