//! Scheme-level event counters backing the paper's Figures 8, 10 and 12.

use serde::{Deserialize, Serialize};

/// Counters every scheme maintains. Flash-level counts (reads/programs/
/// erases by page kind) live in `aftl_flash::FlashStats`; these cover the
/// FTL-internal events the evaluation reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeCounters {
    /// Host write requests serviced.
    pub host_writes: u64,
    /// Host read requests serviced.
    pub host_reads: u64,

    /// DRAM accesses (mapping lookups/updates, cache probes) — Figure 12(b).
    pub dram_accesses: u64,

    /// Read-modify-write flash reads triggered by partial-page updates
    /// (baseline / rollback path). §4.2.2 reports Across-FTL cutting these
    /// by ~62 % vs FTL.
    pub rmw_reads: u64,

    // --- Across-FTL classification, Figure 8 -----------------------------
    /// Across-page direct writes (no existing area involved).
    pub across_direct_writes: u64,
    /// AMerge operations triggered by across-page requests (save a flush).
    pub profitable_amerge: u64,
    /// AMerge operations triggered by non-across requests overlapping an
    /// area (no flush saved vs conventional FTL).
    pub unprofitable_amerge: u64,
    /// ARollback operations (area folded back into normal pages).
    pub arollbacks: u64,
    /// Across-area conflicts resolved by rolling back an older area before
    /// creating a new one (an LPN can reference only one AMT entry).
    pub area_conflicts: u64,

    // --- Across-FTL read classification, §4.2.1 ---------------------------
    /// Reads served entirely from one across-page area.
    pub across_direct_reads: u64,
    /// Reads that had to merge across-area data with normal pages.
    pub merged_reads: u64,
    /// Extra flash reads caused by merged reads (the paper reports these at
    /// 0.12 % of total reads).
    pub merged_read_extra_flash_reads: u64,

    /// Live across-page areas created minus destroyed (gauge).
    pub live_across_areas: u64,
    /// Total across-page areas ever created.
    pub total_across_areas: u64,

    // --- fault handling ---------------------------------------------------
    /// Pages whose data was lost after exhausting the read-retry ladder
    /// during internal operations (RMW, merge, rollback). The replacement
    /// page is stamped with [`crate::LOST_VERSION`].
    pub lost_pages: u64,
    /// Host reads that served at least one sector from a lost page — data
    /// the device acknowledged but could no longer return.
    pub host_unrecoverable_reads: u64,
    /// Host writes rejected because the device was in read-only mode.
    pub write_rejections: u64,
    /// Host writes delayed by the near-full admission throttle
    /// (`GcTuning::throttle_fraction`): admitted, but charged the throttle
    /// delay so GC can keep pace instead of the queue stalling whole.
    pub throttled_writes: u64,
}

impl SchemeCounters {
    /// Figure 8(a): ARollback operations per across-page area created.
    pub fn rollback_ratio(&self) -> f64 {
        if self.total_across_areas == 0 {
            0.0
        } else {
            self.arollbacks as f64 / self.total_across_areas as f64
        }
    }

    /// Figure 8(b) denominator: all across-page write operations.
    pub fn across_writes_total(&self) -> u64 {
        self.across_direct_writes + self.profitable_amerge + self.unprofitable_amerge
    }

    /// Figure 8(b): share of across-page writes in each class
    /// `(direct, profitable-AMerge, unprofitable-AMerge)`.
    pub fn across_write_distribution(&self) -> (f64, f64, f64) {
        let total = self.across_writes_total();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.across_direct_writes as f64 / t,
            self.profitable_amerge as f64 / t,
            self.unprofitable_amerge as f64 / t,
        )
    }

    /// Accumulate another run's counters into this one.
    pub fn merge(&mut self, o: &SchemeCounters) {
        self.host_writes += o.host_writes;
        self.host_reads += o.host_reads;
        self.dram_accesses += o.dram_accesses;
        self.rmw_reads += o.rmw_reads;
        self.across_direct_writes += o.across_direct_writes;
        self.profitable_amerge += o.profitable_amerge;
        self.unprofitable_amerge += o.unprofitable_amerge;
        self.arollbacks += o.arollbacks;
        self.area_conflicts += o.area_conflicts;
        self.across_direct_reads += o.across_direct_reads;
        self.merged_reads += o.merged_reads;
        self.merged_read_extra_flash_reads += o.merged_read_extra_flash_reads;
        self.live_across_areas += o.live_across_areas;
        self.total_across_areas += o.total_across_areas;
        self.lost_pages += o.lost_pages;
        self.host_unrecoverable_reads += o.host_unrecoverable_reads;
        self.write_rejections += o.write_rejections;
        self.throttled_writes += o.throttled_writes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_ratio_and_distribution() {
        let c = SchemeCounters {
            total_across_areas: 100,
            arollbacks: 4,
            across_direct_writes: 60,
            profitable_amerge: 30,
            unprofitable_amerge: 10,
            ..Default::default()
        };
        assert!((c.rollback_ratio() - 0.04).abs() < 1e-12);
        let (d, p, u) = c.across_write_distribution();
        assert!((d - 0.6).abs() < 1e-12);
        assert!((p - 0.3).abs() < 1e-12);
        assert!((u - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_divide_safely() {
        let c = SchemeCounters::default();
        assert_eq!(c.rollback_ratio(), 0.0);
        assert_eq!(c.across_write_distribution(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn merge_sums() {
        let mut a = SchemeCounters {
            host_writes: 1,
            merged_reads: 2,
            ..Default::default()
        };
        let b = SchemeCounters {
            host_writes: 3,
            merged_reads: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.host_writes, 4);
        assert_eq!(a.merged_reads, 6);
    }
}
