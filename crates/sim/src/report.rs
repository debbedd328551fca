//! Run manifests: the single JSON document each experiment run emits.
//!
//! A [`RunReport`] is self-describing — it echoes the full [`SimConfig`]
//! (geometry, timing, scheme parameters, warm-up seed), records what
//! aging actually did ([`WarmupStats`]), and carries every measurement of
//! the run: per-class request metrics, per-[`crate::observe::OpKind`]
//! latency percentiles, flash-level op counts, scheme counters, cache and
//! GC statistics. All figure/table binaries consume this one type — the
//! human-readable tables in [`crate::tables`] are renderings of it, not a
//! second accounting path — and one assembler builds it for every driver.

use aftl_core::counters::SchemeCounters;
use aftl_core::gc::GcReport;
use aftl_core::learned::LearnedStats;
use aftl_core::mapping::cache::CacheStats;
use aftl_core::mapping::engine::MapEngineStats;
use aftl_core::scheme::SchemeKind;
use aftl_flash::stats::KindCounts;
use aftl_flash::FlashStats;
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::experiment::DeviceRun;
use crate::metrics::ClassBreakdown;
use crate::observe::LatencyBreakdown;
use crate::ssd::Ssd;
use crate::warmup::WarmupStats;

/// Version of the [`RunReport`] JSON schema. Bumped whenever a field is
/// added, removed or changes meaning; only the current version parses,
/// since every artifact regenerates from the code. v9 has three optional
/// sections, `null` when a run has none: [`QosSection`] (hosted runs),
/// [`FleetSection`] (sharded runs) and [`RecoverySection`] (power cuts).
pub const SCHEMA_VERSION: u32 = 9;

/// Fold one or more finished [`DeviceRun`]s, left to right, into the run
/// manifest with whichever optional sections the driver produced: counts
/// sum, latency histograms merge exactly before percentiles are taken, the
/// span is the makespan, and crash verdicts fold into `recovery` when the
/// run recovered. Name (unless overridden), config echo and scheme come
/// from device 0, which is handed back holding the merged histograms.
pub(crate) fn assemble(
    runs: Vec<DeviceRun>,
    name: Option<String>,
    qos: Option<QosSection>,
    fleet: Option<FleetSection>,
    wall_seconds: f64,
) -> (RunReport, Ssd) {
    let warmup = WarmupStats::merged(&runs.iter().map(|r| r.warmup).collect::<Vec<_>>());
    // A cut-only run (no `recover`) rebuilt nothing, so it reports nothing.
    let recovery = runs
        .iter()
        .filter(|r| r.ssd.config().crash.recover)
        .filter_map(|r| r.ssd.crash_outcome().map(|c| c.to_section()))
        .reduce(RecoverySection::merge);
    let mut runs = runs.into_iter();
    let head = runs.next().expect("a report needs at least one device run");
    let (mut ssd, mut w, mut requests) = (head.ssd, head.window, head.requests);
    let mut mapping_table_bytes = ssd.scheme().mapping_table_bytes();
    let mut trace_events = ssd.observer().trace_events_total();
    for run in runs {
        w.merge(&run.window);
        requests += run.requests;
        mapping_table_bytes += run.ssd.scheme().mapping_table_bytes();
        trace_events += run.ssd.observer().trace_events_total();
        ssd.observer_mut().merge(run.ssd.observer());
    }
    let config = ssd.config().clone();
    let report = RunReport {
        schema_version: SCHEMA_VERSION,
        trace: name.unwrap_or(head.name),
        scheme: config.scheme,
        page_bytes: config.geometry.page_bytes,
        requests,
        config,
        warmup,
        classes: w.classes,
        latency: ssd.observer().breakdown(),
        flash: w.stats.flash,
        counters: w.stats.counters,
        cache: w.stats.cache,
        map_engine: w.stats.map_engine,
        learned: w.stats.learned,
        gc: w.gc,
        mapping_table_bytes,
        sim_span_ns: w.span_ns,
        wall_seconds,
        trace_events,
        qos,
        fleet,
        recovery,
    };
    (report, ssd)
}

/// The complete result of replaying one trace on one scheme — the run
/// manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// JSON schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Name of the replayed trace.
    pub trace: String,
    /// Scheme the device ran.
    pub scheme: SchemeKind,
    /// Flash page size of the device.
    pub page_bytes: u32,
    /// Host requests replayed in the measured window.
    pub requests: u64,
    /// Full configuration echo: geometry, timing, scheme parameters,
    /// warm-up targets and seed, observability settings.
    pub config: SimConfig,
    /// What aging actually did before measurement started.
    pub warmup: WarmupStats,
    /// Per request-class metrics (read/write × across/normal).
    pub classes: ClassBreakdown,
    /// Per op-kind latency percentiles (p50/p95/p99/p999).
    pub latency: LatencyBreakdown,
    /// Flash-level deltas over the measured window (map/data split).
    pub flash: FlashStats,
    /// Scheme event counters (AMerge, ARollback, RMW, DRAM accesses, …).
    pub counters: SchemeCounters,
    /// Mapping-cache statistics.
    pub cache: CacheStats,
    /// Pipelined map-engine counters (all zero when the pipeline is off).
    pub map_engine: MapEngineStats,
    /// Learned-mapping counters (all zero for the paper's three
    /// schemes).
    pub learned: LearnedStats,
    /// Accumulated GC work.
    pub gc: GcReport,
    /// Resident mapping-table footprint.
    pub mapping_table_bytes: u64,
    /// Simulated trace span (last completion − first arrival).
    pub sim_span_ns: u128,
    /// Host wall-clock seconds spent simulating the workload (device aging
    /// plus the trace loop; excludes report assembly). Informational only:
    /// it is written to the manifest, every deterministic comparison zeroes
    /// it, and no code reads it — host time is measured by `benchmark/`,
    /// which times its own calls.
    pub wall_seconds: f64,
    /// Events offered to the trace ring (0 unless tracing was enabled).
    pub trace_events: u64,
    /// Per-tenant QoS results — present only for hosted (multi-queue)
    /// runs, `null` for plain replay.
    pub qos: Option<QosSection>,
    /// Fleet topology and per-device summaries — present only for
    /// sharded multi-device runs, `null` otherwise.
    pub fleet: Option<FleetSection>,
    /// Crash-recovery results — present only for sudden-power-off runs
    /// that recovered (`--crash-at` + `--recover`), `null` otherwise.
    pub recovery: Option<RecoverySection>,
}

/// What recovering from a sudden power-off cost and whether the rebuilt
/// mapping passed the acknowledged-write oracle.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoverySection {
    /// Flash-op budget the cut was armed with.
    pub crash_at: u64,
    /// Whether the cut actually fired before the workload ended.
    pub fired: bool,
    /// Rebuild strategy: `"scan"` (full OOB sweep) or `"checkpoint"`
    /// (checkpoint load + post-checkpoint delta replay).
    pub mode: String,
    /// Programmed pages whose OOB records the rebuild examined.
    pub scanned_pages: u64,
    /// Post-checkpoint journal entries replayed (0 in scan mode).
    pub journal_replays: u64,
    /// Flash page reads the rebuild cost (the scan-vs-checkpoint metric).
    pub rebuild_flash_reads: u64,
    /// Modelled rebuild time: `rebuild_flash_reads × read_ns`.
    pub recovery_ns: u64,
    /// Host writes acknowledged before the cut.
    pub acked_writes: u64,
    /// Sectors read back and matched against the oracle after recovery.
    pub verified_sectors: u64,
    /// Acknowledged sectors whose post-recovery content was wrong
    /// (any non-zero value is a crash-consistency bug).
    pub lost_sectors: u64,
    /// Whether any sector of the torn (unacknowledged) request became
    /// visible after recovery (`true` is an atomicity bug).
    pub torn_exposed: bool,
}

impl RecoverySection {
    /// Both oracle conditions hold: no acknowledged write lost, no torn
    /// request partially visible.
    pub fn clean(&self) -> bool {
        self.lost_sectors == 0 && !self.torn_exposed
    }

    /// Fold another device's section into a fleet's: counts sum, the
    /// rebuild time is the longest (devices recover concurrently), and
    /// `fired` / `torn_exposed` hold if they do on any device.
    fn merge(mut self, o: RecoverySection) -> RecoverySection {
        self.fired |= o.fired;
        self.scanned_pages += o.scanned_pages;
        self.journal_replays += o.journal_replays;
        self.rebuild_flash_reads += o.rebuild_flash_reads;
        self.recovery_ns = self.recovery_ns.max(o.recovery_ns);
        self.acked_writes += o.acked_writes;
        self.verified_sectors += o.verified_sectors;
        self.lost_sectors += o.lost_sectors;
        self.torn_exposed |= o.torn_exposed;
        self
    }
}

/// How a fleet run sharded the workload and what each device contributed.
/// The enclosing [`RunReport`] carries the *merged* measurements; this
/// section records the topology so a merged manifest stays auditable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSection {
    /// Number of simulated devices the workload was sharded across.
    pub devices: u64,
    /// Sector span the range sharding covered (`[0, span)`).
    pub span_sectors: u64,
    /// Base seed the per-device host/warm-up/fault streams derive from.
    pub base_seed: u64,
    /// Per-device results, in shard order.
    pub per_device: Vec<DeviceSummary>,
}

/// One device's slice of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSummary {
    /// Shard index (also the seed-derivation index).
    pub device: u64,
    /// First sector of the shard's range (inclusive).
    pub range_start: u64,
    /// One past the last sector of the shard's range (exclusive).
    pub range_end: u64,
    /// Requests the shard routed to this device.
    pub requests: u64,
    /// The device's simulated span (its last completion).
    pub sim_span_ns: u128,
    /// Flash programs the device issued in the measured window.
    pub flash_programs: u64,
    /// Block erases the device issued in the measured window.
    pub erases: u64,
    /// Warm-up writes spent aging this device.
    pub warmup_writes: u64,
}

/// Per-tenant QoS results of a hosted (multi-queue) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosSection {
    /// Arbitration policy the run used (`rr` / `wrr`).
    pub arbitration: String,
    /// Device-side inflight budget.
    pub device_inflight: u64,
    /// Run seed that fed every tenant initiator.
    pub host_seed: u64,
    /// Per-tenant results, in config order.
    pub tenants: Vec<TenantQos>,
}

/// One tenant's end-to-end view of a hosted run. Latencies here are
/// measured from the tenant's *arrival* (when it wanted to issue), so
/// queue wait and queue-full stall time count against the tenant —
/// unlike the device-side `classes`/`latency` sections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantQos {
    /// Tenant display name.
    pub name: String,
    /// Effective arbitration weight (1 under plain RR).
    pub weight: u32,
    /// Submission-queue depth.
    pub queue_depth: u64,
    /// Issue-model echo (`closed(8)`, `poisson(100000ns)`, `trace(x2)`,
    /// `fixed(50000ns)`).
    pub issue: String,
    /// Requests issued (completed + rejected).
    pub requests: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Requests the device refused: writes to a read-only device, and
    /// everything offered after a power cut fired.
    pub rejected_writes: u64,
    /// Stall episodes: arrivals that found the submission queue full.
    pub queue_full_stalls: u64,
    /// Nanoseconds arrivals spent blocked on a full queue.
    pub stalled_ns: u64,
    /// Submission-queue occupancy high-water mark.
    pub max_occupancy: u32,
    /// End-to-end read latency percentiles.
    pub read_latency: crate::observe::HistogramSummary,
    /// End-to-end write latency percentiles.
    pub write_latency: crate::observe::HistogramSummary,
}

impl RunReport {
    /// Figure 9(c)/14(a): overall I/O time = Σ request latencies (seconds).
    pub fn io_time_s(&self) -> f64 {
        (self.classes.reads_total().latency_sum_ns + self.classes.writes_total().latency_sum_ns)
            as f64
            / 1e9
    }

    /// Figure 9(a): mean read response time (ms).
    pub fn read_latency_ms(&self) -> f64 {
        self.classes.reads_total().mean_latency_ms()
    }

    /// Figure 9(b): mean write response time (ms).
    pub fn write_latency_ms(&self) -> f64 {
        self.classes.writes_total().mean_latency_ms()
    }

    /// Figure 10(a): total flash programs, and the Map share.
    pub fn flash_writes(&self) -> KindCounts {
        self.flash.programs
    }

    /// Figure 10(b): total flash reads, and the Map share.
    pub fn flash_reads(&self) -> KindCounts {
        self.flash.reads
    }

    /// Figure 11: erase count.
    pub fn erases(&self) -> u64 {
        self.flash.erases
    }

    /// Figure 12(b): DRAM access count.
    pub fn dram_accesses(&self) -> u64 {
        self.counters.dram_accesses
    }

    /// The manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("run reports serialize")
    }

    /// A human-readable percentile table of the latency section, one line
    /// per op kind with samples (empty kinds are skipped).
    pub fn latency_table(&self) -> String {
        use crate::observe::OpKind;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12}{:>10}{:>12}{:>12}{:>12}{:>12}{:>12}\n",
            "op", "count", "mean[us]", "p50[us]", "p95[us]", "p99[us]", "max[us]"
        ));
        for kind in OpKind::ALL {
            let s = self.latency.get(kind);
            if s.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<12}{:>10}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>12.1}\n",
                kind.name(),
                s.count,
                s.mean_ns / 1e3,
                s.p50_ns as f64 / 1e3,
                s.p95_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
                s.max_ns as f64 / 1e3,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_single_with;
    use aftl_core::scheme::SchemeKind;
    use aftl_trace::{IoOp, IoRecord, Trace};

    fn tiny_trace() -> Trace {
        let mut records = Vec::new();
        for i in 0..200u64 {
            records.push(IoRecord {
                at_ns: i * 10_000,
                sector: (i * 5) % 4096,
                sectors: 4 + (i % 8) as u32,
                op: if i % 3 == 0 { IoOp::Read } else { IoOp::Write },
            });
        }
        Trace {
            name: "unit".into(),
            records,
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let mut config = SimConfig::test_tiny(SchemeKind::Across);
        config.track_content = false;
        config.observe.trace.enabled = true;
        let report = run_single_with(config, &tiny_trace()).unwrap();

        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.requests, 200);
        assert_eq!(report.latency.host_write.count, report.counters.host_writes);
        assert_eq!(report.latency.host_read.count, report.counters.host_reads);
        assert!(report.latency.host_write.p50_ns > 0);
        assert!(report.trace_events > 0, "tracing was enabled");

        let json = report.to_json();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.requests, report.requests);
        assert_eq!(
            back.latency.host_write.p99_ns,
            report.latency.host_write.p99_ns
        );
        assert_eq!(
            back.config.geometry.page_bytes,
            report.config.geometry.page_bytes
        );
        assert_eq!(back.scheme, SchemeKind::Across);
    }

    #[test]
    fn latency_table_lists_recorded_kinds() {
        let mut config = SimConfig::test_tiny(SchemeKind::Baseline);
        config.track_content = false;
        let report = run_single_with(config, &tiny_trace()).unwrap();
        let table = report.latency_table();
        assert!(table.contains("HostWrite"));
        assert!(table.contains("HostRead"));
        assert!(table.contains("p99[us]"));
        assert!(!table.contains("AMerge"), "baseline never merges");
    }
}
