//! Flash-level statistics: operation counts split by page kind (the paper's
//! Map vs Data decomposition in Figure 10), erase counts (Figure 11), busy
//! time and wear distribution.

use serde::{Deserialize, Serialize};

use crate::page::PageKind;
use crate::Nanos;

/// Counters split by [`PageKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindCounts {
    /// Operations on normal data pages.
    pub data: u64,
    /// Operations on across-page-area pages.
    pub across: u64,
    /// Operations on mapping (translation) pages.
    pub map: u64,
}

impl KindCounts {
    /// Count one operation against `kind`'s bucket.
    #[inline]
    pub fn bump(&mut self, kind: PageKind) {
        match kind {
            PageKind::Data => self.data += 1,
            PageKind::AcrossData => self.across += 1,
            PageKind::Map => self.map += 1,
        }
    }

    /// All user-data operations (normal + across-page areas).
    #[inline]
    pub fn user(&self) -> u64 {
        self.data + self.across
    }

    /// All operations regardless of page kind.
    #[inline]
    pub fn total(&self) -> u64 {
        self.data + self.across + self.map
    }

    /// Share of map traffic in the total, as reported in §4.2.2
    /// (MRSM ≈ 36.9 % of writes, Across-FTL ≈ 2.6 %).
    pub fn map_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.map as f64 / total as f64
        }
    }
}

/// Aggregate statistics maintained by [`crate::array::FlashArray`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashStats {
    /// Page reads issued, by page kind.
    pub reads: KindCounts,
    /// Page programs issued, by page kind.
    pub programs: KindCounts,
    /// Block erases issued.
    pub erases: u64,
    /// Pages migrated by GC (programs above also include these).
    pub gc_migrations: u64,
    /// Total nanoseconds chips spent busy (sum across chips).
    pub chip_busy_ns: Nanos,
    /// Total nanoseconds channels spent transferring.
    pub channel_busy_ns: Nanos,
    /// Injected transient read failures (each occupied the chip but
    /// returned no data; successful retries count under `reads`).
    pub read_faults: u64,
    /// Injected program failures (page consumed, block retired).
    pub program_faults: u64,
    /// Injected erase failures (block retired).
    pub erase_faults: u64,
    /// Blocks retired because their erase-endurance budget was exhausted
    /// (subset of `retired_blocks`).
    pub worn_out_blocks: u64,
    /// Blocks retired by the bad-block manager, for any reason.
    pub retired_blocks: u64,
}

impl FlashStats {
    /// Reset all counters (used after warm-up so measurements cover only the
    /// replayed trace, as in the paper's aged-SSD methodology).
    pub fn reset(&mut self) {
        *self = FlashStats::default();
    }

    /// Merge another stats block (used when fanning experiments out across
    /// threads).
    pub fn merge(&mut self, other: &FlashStats) {
        self.reads.data += other.reads.data;
        self.reads.across += other.reads.across;
        self.reads.map += other.reads.map;
        self.programs.data += other.programs.data;
        self.programs.across += other.programs.across;
        self.programs.map += other.programs.map;
        self.erases += other.erases;
        self.gc_migrations += other.gc_migrations;
        self.chip_busy_ns += other.chip_busy_ns;
        self.channel_busy_ns += other.channel_busy_ns;
        self.read_faults += other.read_faults;
        self.program_faults += other.program_faults;
        self.erase_faults += other.erase_faults;
        self.worn_out_blocks += other.worn_out_blocks;
        self.retired_blocks += other.retired_blocks;
    }
}

/// Distribution of per-block erase counts, for wear-leveling analysis.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WearHistogram {
    /// Smallest per-block erase count.
    pub min: u64,
    /// Largest per-block erase count.
    pub max: u64,
    /// Mean erase count.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Blocks the distribution was taken over.
    pub blocks: u64,
}

impl WearHistogram {
    /// Summarize a stream of per-block erase counts.
    pub fn from_counts(counts: impl Iterator<Item = u64>) -> Self {
        let mut n = 0u64;
        let mut sum = 0u64;
        let mut sumsq: u128 = 0;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for c in counts {
            n += 1;
            sum += c;
            sumsq += u128::from(c) * u128::from(c);
            min = min.min(c);
            max = max.max(c);
        }
        if n == 0 {
            return WearHistogram::default();
        }
        let mean = sum as f64 / n as f64;
        let var = (sumsq as f64 / n as f64) - mean * mean;
        WearHistogram {
            min,
            max,
            mean,
            stddev: var.max(0.0).sqrt(),
            blocks: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_counts_bump_and_ratio() {
        let mut k = KindCounts::default();
        k.bump(PageKind::Data);
        k.bump(PageKind::Data);
        k.bump(PageKind::Map);
        k.bump(PageKind::AcrossData);
        assert_eq!(k.total(), 4);
        assert_eq!(k.user(), 3);
        assert!((k.map_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn map_ratio_zero_when_empty() {
        assert_eq!(KindCounts::default().map_ratio(), 0.0);
    }

    #[test]
    fn wear_histogram_moments() {
        let h = WearHistogram::from_counts([2u64, 4, 4, 4, 5, 5, 7, 9].into_iter());
        assert_eq!(h.blocks, 8);
        assert_eq!(h.min, 2);
        assert_eq!(h.max, 9);
        assert!((h.mean - 5.0).abs() < 1e-12);
        assert!((h.stddev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wear_histogram_empty() {
        let h = WearHistogram::from_counts(std::iter::empty());
        assert_eq!(h.blocks, 0);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = FlashStats {
            erases: 1,
            ..FlashStats::default()
        };
        a.reads.bump(PageKind::Map);
        let mut b = FlashStats {
            erases: 2,
            ..FlashStats::default()
        };
        b.reads.bump(PageKind::Map);
        b.programs.bump(PageKind::Data);
        a.merge(&b);
        assert_eq!(a.erases, 3);
        assert_eq!(a.reads.map, 2);
        assert_eq!(a.programs.data, 1);
    }
}
