//! Trace records and the across-page predicate.

use serde::{Deserialize, Serialize};

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOp {
    /// Host read.
    Read,
    /// Host write.
    Write,
}

/// One block-level I/O request, in 512 B sectors (the unit every trace
/// format we support uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoRecord {
    /// Arrival time in nanoseconds from trace start.
    pub at_ns: u64,
    /// First logical sector (LBA).
    pub sector: u64,
    /// Length in sectors; always ≥ 1.
    pub sectors: u32,
    /// Read or write.
    pub op: IoOp,
}

impl IoRecord {
    /// First logical page touched, for `sectors_per_page`-sector pages.
    #[inline]
    pub fn first_lpn(&self, sectors_per_page: u32) -> u64 {
        self.sector / u64::from(sectors_per_page)
    }

    /// Last logical page touched (inclusive).
    #[inline]
    pub fn last_lpn(&self, sectors_per_page: u32) -> u64 {
        (self.sector + u64::from(self.sectors) - 1) / u64::from(sectors_per_page)
    }

    /// Number of logical pages spanned.
    #[inline]
    pub fn pages_spanned(&self, sectors_per_page: u32) -> u64 {
        self.last_lpn(sectors_per_page) - self.first_lpn(sectors_per_page) + 1
    }

    /// Whether the request is *page-aligned*: it starts on a page boundary
    /// and its length is a whole number of pages.
    #[inline]
    pub fn is_aligned(&self, sectors_per_page: u32) -> bool {
        self.sector.is_multiple_of(u64::from(sectors_per_page))
            && self.sectors.is_multiple_of(sectors_per_page)
    }

    /// The paper's across-page predicate (§1): the request is **no larger
    /// than one SSD page** yet spans **two** logical pages, so a
    /// conventional FTL needs two page operations for it.
    #[inline]
    pub fn is_across_page(&self, sectors_per_page: u32) -> bool {
        self.sectors <= sectors_per_page && self.pages_spanned(sectors_per_page) == 2
    }
}

/// A named sequence of records.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Workload name (file stem for parsed traces, preset id for synthetic).
    pub name: String,
    /// Requests in arrival order.
    pub records: Vec<IoRecord>,
}

impl Trace {
    /// A trace from a name and a record list.
    pub fn new(name: impl Into<String>, records: Vec<IoRecord>) -> Self {
        Trace {
            name: name.into(),
            records,
        }
    }

    /// Number of requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Highest sector touched plus one (the trace's logical footprint).
    pub fn max_sector_end(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.sector + u64::from(r.sectors))
            .max()
            .unwrap_or(0)
    }

    /// Rebase timestamps so the first record arrives at t = 0 and the rest
    /// keep their relative spacing.
    pub fn rebase_time(&mut self) {
        if let Some(t0) = self.records.iter().map(|r| r.at_ns).min() {
            for r in &mut self.records {
                r.at_ns -= t0;
            }
        }
    }

    /// Split the trace by sector range for a fleet of `ranges.len()`
    /// devices: record `r` goes to the shard whose [`SectorRange`]
    /// contains `r.sector` (a record is never split — it belongs wholly
    /// to the device owning its first sector). Timestamps and per-shard
    /// record order are preserved, so each device replays its slice of
    /// the address space with the original arrival pacing.
    ///
    /// Records starting past the last range (possible only if `ranges`
    /// does not cover the trace span) fall into the last shard rather
    /// than being dropped.
    ///
    /// ```
    /// use aftl_trace::{sector_ranges, IoOp, IoRecord, Trace};
    /// let records = (0..100u64)
    ///     .map(|i| IoRecord { at_ns: i, sector: i * 8, sectors: 8, op: IoOp::Write })
    ///     .collect();
    /// let trace = Trace::new("t", records);
    /// let shards = trace.shard_by_ranges(&sector_ranges(trace.max_sector_end(), 4));
    /// assert_eq!(shards.iter().map(Trace::len).sum::<usize>(), 100);
    /// assert!(shards.iter().all(|s| s.len() == 25), "uniform trace splits evenly");
    /// ```
    pub fn shard_by_ranges(&self, ranges: &[SectorRange]) -> Vec<Trace> {
        assert!(!ranges.is_empty(), "cannot shard into zero ranges");
        let mut shards: Vec<Trace> = (0..ranges.len())
            .map(|i| Trace {
                name: format!("{}.r{i}", self.name),
                records: Vec::new(),
            })
            .collect();
        for r in &self.records {
            let i = ranges
                .partition_point(|range| range.end <= r.sector)
                .min(ranges.len() - 1);
            shards[i].records.push(*r);
        }
        shards
    }

    /// Split the trace round-robin into `n` shards (record `i` goes to
    /// shard `i % n`), preserving timestamps and per-shard record order.
    /// This is how one trace feeds several independent initiators: each
    /// shard keeps the original arrival pacing and a 1/n sample of the
    /// spatial pattern, so across-page ratios survive the split.
    pub fn shard(&self, n: usize) -> Vec<Trace> {
        assert!(n > 0, "cannot shard into zero parts");
        let mut shards: Vec<Trace> = (0..n)
            .map(|i| Trace {
                name: format!("{}.s{i}", self.name),
                records: Vec::with_capacity(self.records.len() / n + 1),
            })
            .collect();
        for (i, r) in self.records.iter().enumerate() {
            shards[i % n].records.push(*r);
        }
        shards
    }
}

/// One contiguous half-open sector range `[start, end)` — the unit of
/// fleet range sharding: each simulated device owns one range of the
/// logical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectorRange {
    /// First sector of the range (inclusive).
    pub start: u64,
    /// One past the last sector of the range (exclusive).
    pub end: u64,
}

impl SectorRange {
    /// Whether `sector` falls inside the range.
    #[inline]
    pub fn contains(&self, sector: u64) -> bool {
        self.start <= sector && sector < self.end
    }

    /// Number of sectors the range covers.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range covers no sectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The consistent range-sharding function: split `[0, span)` sectors into
/// `n` contiguous [`SectorRange`]s that tile the space exactly — no gaps,
/// no overlap, widths differing by at most one sector (the remainder goes
/// to the leading ranges). Pure arithmetic on `(span, n)`, so every
/// participant computes identical boundaries.
///
/// ```
/// use aftl_trace::sector_ranges;
/// let ranges = sector_ranges(1000, 3);
/// assert_eq!(ranges.len(), 3);
/// assert_eq!(ranges[0].start, 0);
/// assert_eq!(ranges.last().unwrap().end, 1000);
/// // Exact tiling: each boundary is the next range's start.
/// assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
/// ```
pub fn sector_ranges(span: u64, n: usize) -> Vec<SectorRange> {
    assert!(n > 0, "cannot shard into zero ranges");
    let n64 = n as u64;
    let base = span / n64;
    let rem = span % n64;
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n64 {
        let width = base + u64::from(i < rem);
        ranges.push(SectorRange {
            start,
            end: start + width,
        });
        start += width;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPP: u32 = 16; // 8 KB pages of 512 B sectors

    fn rec(sector: u64, sectors: u32, op: IoOp) -> IoRecord {
        IoRecord {
            at_ns: 0,
            sector,
            sectors,
            op,
        }
    }

    #[test]
    fn figure1_aligned_case() {
        // write(1024K, 24KB): sector 2048, 48 sectors, 3 pages, aligned.
        let r = rec(2048, 48, IoOp::Write);
        assert!(r.is_aligned(SPP));
        assert!(!r.is_across_page(SPP));
        assert_eq!(r.pages_spanned(SPP), 3);
    }

    #[test]
    fn figure1_unaligned_case() {
        // write(1028K, 20KB): sector 2056, 40 sectors — unaligned, 3 pages,
        // larger than a page so NOT across-page.
        let r = rec(2056, 40, IoOp::Write);
        assert!(!r.is_aligned(SPP));
        assert!(!r.is_across_page(SPP));
        assert_eq!(r.pages_spanned(SPP), 3);
    }

    #[test]
    fn figure1_across_page_case() {
        // write(1028K, 8KB): sector 2056, 16 sectors — exactly one page of
        // data spanning two logical pages.
        let r = rec(2056, 16, IoOp::Write);
        assert!(!r.is_aligned(SPP));
        assert!(r.is_across_page(SPP));
        assert_eq!(r.first_lpn(SPP), 128);
        assert_eq!(r.last_lpn(SPP), 129);
    }

    #[test]
    fn small_request_within_one_page_is_not_across() {
        // write(1028K, 4KB) stays inside LPN 128.
        let r = rec(2056, 8, IoOp::Write);
        assert!(!r.is_across_page(SPP));
        assert_eq!(r.pages_spanned(SPP), 1);
    }

    #[test]
    fn across_depends_on_page_size() {
        // 4 KB write at 2 KB offset: across for 4 KB pages, within one page
        // for 8 KB pages... (2KB..6KB lies inside the first 8 KB page).
        let r = rec(4, 8, IoOp::Write);
        assert!(r.is_across_page(8)); // 4 KB pages
        assert!(!r.is_across_page(16)); // 8 KB pages
    }

    #[test]
    fn trace_footprint_and_rebase() {
        let mut t = Trace::new(
            "t",
            vec![
                IoRecord {
                    at_ns: 500,
                    sector: 10,
                    sectors: 4,
                    op: IoOp::Read,
                },
                IoRecord {
                    at_ns: 900,
                    sector: 100,
                    sectors: 8,
                    op: IoOp::Write,
                },
            ],
        );
        assert_eq!(t.max_sector_end(), 108);
        t.rebase_time();
        assert_eq!(t.records[0].at_ns, 0);
        assert_eq!(t.records[1].at_ns, 400);
    }

    #[test]
    fn shard_round_robins_preserving_order_and_times() {
        let records: Vec<IoRecord> = (0..7)
            .map(|i| IoRecord {
                at_ns: i * 100,
                sector: i * 8,
                sectors: 8,
                op: IoOp::Write,
            })
            .collect();
        let t = Trace::new("w", records);
        let shards = t.shard(3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].name, "w.s0");
        assert_eq!(
            shards.iter().map(|s| s.len()).sum::<usize>(),
            t.len(),
            "sharding loses no records"
        );
        // Record i lands in shard i % 3, keeping timestamp and order.
        assert_eq!(shards[0].records[1].at_ns, 300);
        assert_eq!(shards[2].records[0].sector, 16);
        for s in &shards {
            assert!(s.records.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        }
    }

    #[test]
    fn sector_ranges_tile_the_space_exactly() {
        // Coverage with no gaps and no overlap, across even and ragged
        // splits, including span < n (trailing empty ranges).
        for (span, n) in [(1000u64, 4usize), (1001, 4), (7, 3), (3, 8), (1, 1)] {
            let ranges = sector_ranges(span, n);
            assert_eq!(ranges.len(), n, "span={span} n={n}");
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, span);
            assert!(
                ranges.windows(2).all(|w| w[0].end == w[1].start),
                "span={span} n={n}: adjacent ranges must abut"
            );
            assert_eq!(ranges.iter().map(SectorRange::len).sum::<u64>(), span);
            let (min, max) = ranges.iter().fold((u64::MAX, 0), |(lo, hi), r| {
                (lo.min(r.len()), hi.max(r.len()))
            });
            assert!(max - min <= 1, "span={span} n={n}: widths differ by ≤ 1");
            // Every sector belongs to exactly one range.
            for s in [0, span / 2, span.saturating_sub(1)] {
                if span > 0 {
                    assert_eq!(ranges.iter().filter(|r| r.contains(s)).count(), 1);
                }
            }
        }
    }

    #[test]
    fn shard_by_ranges_routes_by_start_sector() {
        let records: Vec<IoRecord> = (0..10)
            .map(|i| IoRecord {
                at_ns: i * 10,
                sector: i * 100,
                sectors: 8,
                op: IoOp::Write,
            })
            .collect();
        let t = Trace::new("w", records);
        let ranges = sector_ranges(t.max_sector_end(), 2);
        let shards = t.shard_by_ranges(&ranges);
        assert_eq!(shards[0].name, "w.r0");
        assert_eq!(shards.iter().map(Trace::len).sum::<usize>(), 10);
        for (shard, range) in shards.iter().zip(&ranges) {
            assert!(shard.records.iter().all(|r| range.contains(r.sector)));
            assert!(shard.records.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        }
        // A record starting past the covered span falls into the last shard.
        let stray = Trace::new(
            "s",
            vec![IoRecord {
                at_ns: 0,
                sector: 10_000,
                sectors: 8,
                op: IoOp::Read,
            }],
        );
        let shards = stray.shard_by_ranges(&ranges);
        assert_eq!(shards[1].len(), 1);
    }
}
