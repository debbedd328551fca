//! Per-run measurement building blocks: request-class metrics, the
//! snapshot/delta machinery, and the one measured [`Window`] every driver
//! fills. The assembled manifest type lives in [`crate::report`].

use aftl_core::counters::SchemeCounters;
use aftl_core::gc::GcReport;
use aftl_core::learned::LearnedStats;
use aftl_core::mapping::cache::CacheStats;
use aftl_core::mapping::engine::MapEngineStats;
use aftl_core::request::ReqKind;
use aftl_flash::stats::KindCounts;
use aftl_flash::{FlashStats, Nanos};
use serde::{Deserialize, Serialize};

use crate::ssd::{Completed, Ssd};

/// Metrics for one request class (read/write × across/normal) —
/// the decomposition behind Figure 4.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ClassMetrics {
    /// Requests serviced in this class.
    pub requests: u64,
    /// Total sectors those requests covered.
    pub sectors: u64,
    /// Sum of request latencies in nanoseconds.
    pub latency_sum_ns: u128,
    /// Flash page reads issued while servicing these requests (GC excluded).
    pub flash_reads: u64,
    /// Flash page programs issued while servicing these requests (GC
    /// excluded) — the paper's "flush" count.
    pub flash_programs: u64,
}

impl ClassMetrics {
    /// Fold in one serviced request.
    pub fn record(&mut self, sectors: u32, latency_ns: u64, reads: u64, programs: u64) {
        self.requests += 1;
        self.sectors += u64::from(sectors);
        self.latency_sum_ns += u128::from(latency_ns);
        self.flash_reads += reads;
        self.flash_programs += programs;
    }

    /// Mean latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.latency_sum_ns as f64 / self.requests as f64 / 1e6
        }
    }

    /// Figure 4 y-axis: mean latency per sector (ms / sector).
    pub fn latency_per_sector_ms(&self) -> f64 {
        if self.sectors == 0 {
            0.0
        } else {
            self.latency_sum_ns as f64 / self.sectors as f64 / 1e6
        }
    }

    /// Figure 4(c): flash programs per sector.
    pub fn programs_per_sector(&self) -> f64 {
        if self.sectors == 0 {
            0.0
        } else {
            self.flash_programs as f64 / self.sectors as f64
        }
    }

    /// Accumulate another class's metrics into this one.
    pub fn merge(&mut self, o: &ClassMetrics) {
        self.requests += o.requests;
        self.sectors += o.sectors;
        self.latency_sum_ns += o.latency_sum_ns;
        self.flash_reads += o.flash_reads;
        self.flash_programs += o.flash_programs;
    }
}

/// Request classes.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ClassBreakdown {
    /// Reads spanning two logical pages.
    pub across_reads: ClassMetrics,
    /// Reads contained in one logical page.
    pub normal_reads: ClassMetrics,
    /// Writes spanning two logical pages.
    pub across_writes: ClassMetrics,
    /// Writes contained in one logical page.
    pub normal_writes: ClassMetrics,
}

impl ClassBreakdown {
    /// The class cell for a (direction, across-ness) pair.
    pub fn class_mut(&mut self, is_write: bool, across: bool) -> &mut ClassMetrics {
        match (is_write, across) {
            (false, true) => &mut self.across_reads,
            (false, false) => &mut self.normal_reads,
            (true, true) => &mut self.across_writes,
            (true, false) => &mut self.normal_writes,
        }
    }

    /// Both read classes combined.
    pub fn reads_total(&self) -> ClassMetrics {
        let mut m = self.across_reads;
        m.merge(&self.normal_reads);
        m
    }

    /// Both write classes combined.
    pub fn writes_total(&self) -> ClassMetrics {
        let mut m = self.across_writes;
        m.merge(&self.normal_writes);
        m
    }

    /// Accumulate another breakdown into this one, class by class
    /// (fleet-level aggregation across devices).
    pub fn merge(&mut self, o: &ClassBreakdown) {
        self.across_reads.merge(&o.across_reads);
        self.normal_reads.merge(&o.normal_reads);
        self.across_writes.merge(&o.across_writes);
        self.normal_writes.merge(&o.normal_writes);
    }
}

/// Snapshot of cumulative stats, for before/after deltas around the
/// measured window (warm-up is excluded this way).
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Flash array stats at snapshot time.
    pub flash: FlashStats,
    /// Scheme counters at snapshot time.
    pub counters: SchemeCounters,
    /// Mapping-cache stats at snapshot time.
    pub cache: CacheStats,
    /// Pipelined map-engine counters at snapshot time.
    pub map_engine: MapEngineStats,
    /// Learned-mapping counters at snapshot time (all zero for the
    /// paper's three schemes).
    pub learned: LearnedStats,
}

fn sub_kind(a: KindCounts, b: KindCounts) -> KindCounts {
    KindCounts {
        data: a.data - b.data,
        across: a.across - b.across,
        map: a.map - b.map,
    }
}

/// Field-wise `a − b` for flash stats.
pub fn flash_delta(a: &FlashStats, b: &FlashStats) -> FlashStats {
    FlashStats {
        reads: sub_kind(a.reads, b.reads),
        programs: sub_kind(a.programs, b.programs),
        erases: a.erases - b.erases,
        gc_migrations: a.gc_migrations - b.gc_migrations,
        chip_busy_ns: a.chip_busy_ns - b.chip_busy_ns,
        channel_busy_ns: a.channel_busy_ns - b.channel_busy_ns,
        read_faults: a.read_faults - b.read_faults,
        program_faults: a.program_faults - b.program_faults,
        erase_faults: a.erase_faults - b.erase_faults,
        worn_out_blocks: a.worn_out_blocks - b.worn_out_blocks,
        retired_blocks: a.retired_blocks - b.retired_blocks,
    }
}

/// Field-wise `a − b` for scheme counters.
pub fn counters_delta(a: &SchemeCounters, b: &SchemeCounters) -> SchemeCounters {
    SchemeCounters {
        host_writes: a.host_writes - b.host_writes,
        host_reads: a.host_reads - b.host_reads,
        dram_accesses: a.dram_accesses - b.dram_accesses,
        rmw_reads: a.rmw_reads - b.rmw_reads,
        across_direct_writes: a.across_direct_writes - b.across_direct_writes,
        profitable_amerge: a.profitable_amerge - b.profitable_amerge,
        unprofitable_amerge: a.unprofitable_amerge - b.unprofitable_amerge,
        arollbacks: a.arollbacks - b.arollbacks,
        area_conflicts: a.area_conflicts - b.area_conflicts,
        across_direct_reads: a.across_direct_reads - b.across_direct_reads,
        merged_reads: a.merged_reads - b.merged_reads,
        merged_read_extra_flash_reads: a.merged_read_extra_flash_reads
            - b.merged_read_extra_flash_reads,
        // Gauges: report the current value, not a delta.
        live_across_areas: a.live_across_areas,
        total_across_areas: a.total_across_areas - b.total_across_areas,
        lost_pages: a.lost_pages - b.lost_pages,
        host_unrecoverable_reads: a.host_unrecoverable_reads - b.host_unrecoverable_reads,
        write_rejections: a.write_rejections - b.write_rejections,
        throttled_writes: a.throttled_writes - b.throttled_writes,
    }
}

/// Field-wise `a − b` for cache stats.
pub fn cache_delta(a: &CacheStats, b: &CacheStats) -> CacheStats {
    CacheStats {
        lookups: a.lookups - b.lookups,
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        loads: a.loads - b.loads,
        flushes: a.flushes - b.flushes,
    }
}

/// The measured window every driver fills: opened on a device's
/// cumulative stats, fed each request the run measures, closed into the
/// deltas a manifest reports, and merged across a fleet's devices.
#[derive(Debug, Clone)]
pub struct Window {
    /// The device's cumulative stats when the window opened; once closed,
    /// their deltas over the window.
    pub stats: StatsSnapshot,
    /// Per request-class metrics of the recorded requests.
    pub classes: ClassBreakdown,
    /// GC work the recorded requests (and any idle gaps) triggered.
    pub gc: GcReport,
    /// The latest completion recorded, in simulated ns.
    pub span_ns: u128,
}

impl Window {
    /// Open the window on `ssd`'s stats as they stand.
    pub fn open(ssd: &Ssd) -> Self {
        Window {
            stats: ssd.snapshot(),
            classes: ClassBreakdown::default(),
            gc: GcReport::default(),
            span_ns: 0,
        }
    }

    /// Fold in one request that arrived at `at_ns`.
    #[inline]
    pub fn record(&mut self, c: &Completed, at_ns: Nanos) {
        self.classes
            .class_mut(c.kind == ReqKind::Write, c.across)
            .record(c.sectors, c.latency_ns, c.flash_reads, c.flash_programs);
        self.gc.merge(&c.gc);
        let end = u128::from(at_ns) + u128::from(c.latency_ns);
        self.span_ns = self.span_ns.max(end);
    }

    /// Close the window on `ssd`'s stats: `stats` becomes their deltas.
    pub fn close(mut self, ssd: &Ssd) -> Self {
        let (end, base) = (ssd.snapshot(), &self.stats);
        self.stats = StatsSnapshot {
            flash: flash_delta(&end.flash, &base.flash),
            counters: counters_delta(&end.counters, &base.counters),
            cache: cache_delta(&end.cache, &base.cache),
            map_engine: end.map_engine.delta(&base.map_engine),
            learned: end.learned.delta(&base.learned),
        };
        self
    }

    /// Fold in another device's closed window: counts sum, and the span
    /// is the makespan (devices run concurrently in simulated time).
    pub fn merge(&mut self, o: &Window) {
        let (s, t) = (&mut self.stats, &o.stats);
        s.flash.merge(&t.flash);
        s.counters.merge(&t.counters);
        s.cache.merge(&t.cache);
        s.map_engine.merge(&t.map_engine);
        s.learned.merge(&t.learned);
        self.classes.merge(&o.classes);
        self.gc.merge(&o.gc);
        self.span_ns = self.span_ns.max(o.span_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_metrics_means() {
        let mut m = ClassMetrics::default();
        m.record(8, 2_000_000, 1, 2);
        m.record(8, 4_000_000, 0, 1);
        assert_eq!(m.requests, 2);
        assert!((m.mean_latency_ms() - 3.0).abs() < 1e-9);
        assert!((m.latency_per_sector_ms() - 0.375).abs() < 1e-9);
        assert!((m.programs_per_sector() - 3.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_routes_classes() {
        let mut b = ClassBreakdown::default();
        b.class_mut(true, true).record(4, 10, 0, 1);
        b.class_mut(false, false).record(2, 20, 1, 0);
        assert_eq!(b.across_writes.requests, 1);
        assert_eq!(b.normal_reads.requests, 1);
        assert_eq!(b.writes_total().requests, 1);
        assert_eq!(b.reads_total().latency_sum_ns, 20);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn deltas_subtract() {
        let mut a = FlashStats::default();
        a.erases = 10;
        a.programs.data = 7;
        let mut b = FlashStats::default();
        b.erases = 4;
        b.programs.data = 5;
        let d = flash_delta(&a, &b);
        assert_eq!(d.erases, 6);
        assert_eq!(d.programs.data, 2);

        let mut ca = SchemeCounters::default();
        ca.dram_accesses = 100;
        ca.live_across_areas = 5;
        let mut cb = SchemeCounters::default();
        cb.dram_accesses = 60;
        cb.live_across_areas = 3;
        let cd = counters_delta(&ca, &cb);
        assert_eq!(cd.dram_accesses, 40);
        assert_eq!(cd.live_across_areas, 5, "gauge keeps the current value");
    }

    #[test]
    fn empty_class_metrics_divide_safely() {
        let m = ClassMetrics::default();
        assert_eq!(m.mean_latency_ms(), 0.0);
        assert_eq!(m.latency_per_sector_ms(), 0.0);
        assert_eq!(m.programs_per_sector(), 0.0);
    }
}
