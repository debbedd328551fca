//! Per-trace statistics: the Table 2 columns and the across-page ratios of
//! Figures 2 and 13.

use serde::{Deserialize, Serialize};

use crate::record::{IoOp, IoRecord};

/// Summary statistics for one trace at a given page size.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total requests.
    pub requests: u64,
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Sectors read.
    pub read_sectors: u64,
    /// Sectors written.
    pub write_sectors: u64,
    /// Requests satisfying the across-page predicate at this page size.
    pub across_requests: u64,
    /// Across-page reads.
    pub across_reads: u64,
    /// Across-page writes.
    pub across_writes: u64,
    /// Requests not page-aligned at this page size.
    pub unaligned_requests: u64,
    /// Page size the across/unaligned columns were computed for.
    pub page_bytes: u32,
    /// Host sector size the trace is expressed in.
    pub sector_bytes: u32,
}

impl TraceStats {
    /// Compute statistics over `records` for pages of `page_bytes`.
    pub fn compute(records: &[IoRecord], page_bytes: u32, sector_bytes: u32) -> Self {
        let spp = page_bytes / sector_bytes;
        let mut s = TraceStats {
            page_bytes,
            sector_bytes,
            ..TraceStats::default()
        };
        for r in records {
            s.requests += 1;
            match r.op {
                IoOp::Read => {
                    s.reads += 1;
                    s.read_sectors += u64::from(r.sectors);
                }
                IoOp::Write => {
                    s.writes += 1;
                    s.write_sectors += u64::from(r.sectors);
                }
            }
            if r.is_across_page(spp) {
                s.across_requests += 1;
                match r.op {
                    IoOp::Read => s.across_reads += 1,
                    IoOp::Write => s.across_writes += 1,
                }
            }
            if !r.is_aligned(spp) {
                s.unaligned_requests += 1;
            }
        }
        s
    }

    /// Table 2 "Write R": fraction of requests that are writes.
    pub fn write_ratio(&self) -> f64 {
        ratio(self.writes, self.requests)
    }

    /// Table 2 "Write SZ": mean write size in KiB.
    pub fn avg_write_kib(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            (self.write_sectors as f64 * self.sector_bytes as f64) / (self.writes as f64 * 1024.0)
        }
    }

    /// Table 2 "Across R" / Figures 2 & 13: across-page share of all
    /// requests.
    pub fn across_ratio(&self) -> f64 {
        ratio(self.across_requests, self.requests)
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sector: u64, sectors: u32, op: IoOp) -> IoRecord {
        IoRecord {
            at_ns: 0,
            sector,
            sectors,
            op,
        }
    }

    #[test]
    fn mixed_trace_stats() {
        let records = vec![
            rec(0, 16, IoOp::Write),    // aligned page write
            rec(2056, 16, IoOp::Write), // across-page write (Fig 1)
            rec(2056, 8, IoOp::Read),   // small unaligned, single page
            rec(30, 8, IoOp::Read),     // across-page read (sectors 30..38 span pages 1,2)
        ];
        let s = TraceStats::compute(&records, 8192, 512);
        assert_eq!(s.requests, 4);
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 2);
        assert_eq!(s.across_requests, 2);
        assert_eq!(s.across_writes, 1);
        assert_eq!(s.across_reads, 1);
        assert_eq!(s.unaligned_requests, 3);
        assert!((s.write_ratio() - 0.5).abs() < 1e-12);
        assert!((s.across_ratio() - 0.5).abs() < 1e-12);
        // Two writes of 16 sectors each → 8 KiB average.
        assert!((s.avg_write_kib() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::compute(&[], 8192, 512);
        assert_eq!(s.requests, 0);
        assert_eq!(s.write_ratio(), 0.0);
        assert_eq!(s.avg_write_kib(), 0.0);
        assert_eq!(s.across_ratio(), 0.0);
    }

    #[test]
    fn across_ratio_shrinks_with_page_size() {
        // 4 KB requests at 2 KB phase: across at 4 KB pages, not at 16 KB.
        let records: Vec<IoRecord> = (0..100).map(|i| rec(4 + i * 8, 8, IoOp::Write)).collect();
        let s4 = TraceStats::compute(&records, 4096, 512);
        let s16 = TraceStats::compute(&records, 16384, 512);
        assert!(s4.across_ratio() > s16.across_ratio());
    }
}
