//! Per-layer metrics: times from the traced run's spans, counts from its
//! report. Self time is a span's duration minus what its children cover;
//! a layer's share is its self time over the measured window's wall.

use std::collections::HashMap;

use crate::metrics::PER_LAYER;
use crate::spans::{Name, Span};
use crate::stats::quantile_u64;
use crate::traced::Traced;

/// Measurements a traced run takes beside the traced repeat itself.
#[derive(Debug, Clone, Default)]
pub struct Arms {
    /// Wall of the untraced measured call, same inputs (the overhead base).
    pub timed_wall_s: f64,
    /// `lun6-mrsm` only: wall of the same replay with the map pipeline on.
    pub pipelined_wall_s: Option<f64>,
    /// `lun1-across` only: wall of the same replay with the observer off.
    pub unobserved_wall_s: Option<f64>,
    /// `lun1-across` only: the isolated per-call costs.
    pub iso: Vec<(&'static str, f64)>,
}

#[derive(Default)]
struct Agg {
    count: u64,
    dur_ns: u64,
    self_ns: u64,
}

fn sorted_durs(spans: &[Span], names: &[Name]) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(Span::dur_ns)
        .collect();
    v.sort_unstable();
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of one traced run, in [`PER_LAYER`] order.
pub fn per_layer(t: &Traced, arms: &Arms) -> Vec<(&'static str, f64)> {
    let spans = t.spans.all();
    let own = t.spans.self_times();
    let mut agg: HashMap<Name, Agg> = HashMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let a = agg.entry(s.name).or_default();
        a.count += 1;
        a.dur_ns += s.dur_ns();
        a.self_ns += self_ns;
    }
    let dur = |n: Name| agg.get(&n).map_or(0, |a| a.dur_ns) as f64;
    let own_of = |names: &[Name]| -> f64 {
        names
            .iter()
            .map(|n| agg.get(n).map_or(0, |a| a.self_ns))
            .sum::<u64>() as f64
    };
    let mean = |n: Name| {
        agg.get(&n)
            .map_or(0.0, |a| ratio(a.dur_ns as f64, a.count as f64))
    };
    let ms = |n: Name| dur(n) / 1e6;

    const WRITES: [Name; 2] = [Name::SchemeWriteAcross, Name::SchemeWriteAligned];
    const READS: [Name; 2] = [Name::SchemeReadAcross, Name::SchemeReadAligned];
    const SCHEME: [Name; 4] = [WRITES[0], WRITES[1], READS[0], READS[1]];
    const GC: [Name; 2] = [Name::GcIdle, Name::GcCollect];
    const OBSERVE: [Name; 2] = [Name::ObserveHost, Name::ObserveGc];

    // The measured window: the trace loop, or the whole fleet call.
    let window_ns = dur(Name::Replay) + dur(Name::FleetRun);
    let window_s = window_ns / 1e9;
    let r = &t.report;
    let requests = r.requests as f64;
    let flash_ops = (r.flash.reads.total() + r.flash.programs.total() + r.flash.erases) as f64;
    let writes = sorted_durs(spans, &WRITES);
    let reads = sorted_durs(spans, &READS);
    let collects = sorted_durs(spans, &[Name::GcCollect]);
    let chips = r.config.geometry.total_chips() as f64;
    let devices = t.fleet.as_ref().map_or(1, |f| f.shard_requests.len()) as f64;

    let mut out: Vec<(&'static str, f64)> = vec![
        ("trace.generate_ms", ms(Name::TraceGenerate)),
        ("trace.records", requests),
        (
            "trace.write_ratio",
            ratio(r.classes.writes_total().requests as f64, requests),
        ),
        (
            "trace.across_ratio",
            ratio(
                (r.classes.across_reads.requests + r.classes.across_writes.requests) as f64,
                requests,
            ),
        ),
        ("sim.ssd.new_ms", ms(Name::SsdNew)),
        (
            "sim.ssd.driver_share",
            ratio(
                own_of(&[Name::Replay, Name::FleetRun, Name::Request]),
                window_ns,
            ),
        ),
        (
            "sim.ssd.read_p999_us",
            r.latency.host_read.p999_ns as f64 / 1e3,
        ),
        (
            "sim.ssd.write_p999_us",
            r.latency.host_write.p999_ns as f64 / 1e3,
        ),
        ("sim.warmup.age_ms", ms(Name::WarmupAge)),
        ("sim.warmup.writes", r.warmup.writes as f64),
        (
            "sim.warmup.ns_per_write",
            ratio(dur(Name::WarmupAge), r.warmup.writes as f64),
        ),
        ("core.scheme.share", ratio(own_of(&SCHEME), window_ns)),
        (
            "core.scheme.write_ns_p50",
            quantile_u64(&writes, 0.50) as f64,
        ),
        (
            "core.scheme.write_ns_p99",
            quantile_u64(&writes, 0.99) as f64,
        ),
        ("core.scheme.read_ns_p50", quantile_u64(&reads, 0.50) as f64),
        ("core.scheme.read_ns_p99", quantile_u64(&reads, 0.99) as f64),
        (
            "core.scheme.write_across_ns_mean",
            mean(Name::SchemeWriteAcross),
        ),
        (
            "core.scheme.write_aligned_ns_mean",
            mean(Name::SchemeWriteAligned),
        ),
        (
            "core.scheme.read_across_ns_mean",
            mean(Name::SchemeReadAcross),
        ),
        (
            "core.scheme.read_aligned_ns_mean",
            mean(Name::SchemeReadAligned),
        ),
        ("core.scheme.rmw_reads", r.counters.rmw_reads as f64),
        ("core.scheme.dram_accesses", r.counters.dram_accesses as f64),
        (
            "core.scheme.map_table_mb",
            r.mapping_table_bytes as f64 / 1e6,
        ),
        (
            "core.across.direct_writes",
            r.counters.across_direct_writes as f64,
        ),
        (
            "core.across.amerges",
            (r.counters.profitable_amerge + r.counters.unprofitable_amerge) as f64,
        ),
        ("core.across.arollbacks", r.counters.arollbacks as f64),
        ("core.learned.predict_hits", r.learned.predict_hits as f64),
        ("core.learned.rebuilds", r.learned.segment_rebuilds as f64),
        ("core.learned.map_ins_saved", r.learned.map_ins_saved as f64),
        ("core.gc.share", ratio(own_of(&GC), window_ns)),
        ("core.gc.episodes", r.gc.episodes as f64),
        ("core.gc.migrated_pages", r.gc.migrated_pages as f64),
        ("core.gc.erased_blocks", r.gc.erased_blocks as f64),
        (
            "core.gc.call_us_p50",
            quantile_u64(&collects, 0.50) as f64 / 1e3,
        ),
        (
            "core.gc.call_us_p99",
            quantile_u64(&collects, 0.99) as f64 / 1e3,
        ),
        (
            "core.gc.ns_per_migrated_page",
            ratio(dur(Name::GcCollect), r.gc.migrated_pages as f64),
        ),
        (
            "core.gc.sim_pause_p99_us",
            r.latency.gc_pause.p99_ns as f64 / 1e3,
        ),
        ("core.mapping.cache_lookups", r.cache.lookups as f64),
        (
            "core.mapping.cache_hit_ratio",
            ratio(r.cache.hits as f64, r.cache.lookups as f64),
        ),
        ("core.mapping.cache_loads", r.cache.loads as f64),
        ("core.mapping.cache_flushes", r.cache.flushes as f64),
        ("core.mapping.map_reads", r.flash.reads.map as f64),
        ("core.mapping.map_programs", r.flash.programs.map as f64),
        (
            "core.mapping.pipelined_ratio",
            arms.pipelined_wall_s
                .map_or(0.0, |p| ratio(arms.timed_wall_s, p)),
        ),
        ("flash.reads", r.flash.reads.total() as f64),
        ("flash.programs", r.flash.programs.total() as f64),
        ("flash.erases", r.flash.erases as f64),
        ("flash.gc_migrations", r.flash.gc_migrations as f64),
        ("flash.ops_per_req", ratio(flash_ops, requests)),
        (
            "flash.host_ns_per_op",
            ratio(arms.timed_wall_s * 1e9, flash_ops),
        ),
        (
            "flash.chip_busy_fraction",
            ratio(
                r.flash.chip_busy_ns as f64,
                chips * devices * r.sim_span_ns as f64,
            ),
        ),
        ("sim.observe.share", ratio(own_of(&OBSERVE), window_ns)),
        ("sim.observe.ns_per_req", ratio(own_of(&OBSERVE), requests)),
        (
            "sim.observe.cost_ratio",
            arms.unobserved_wall_s
                .map_or(0.0, |u| ratio(arms.timed_wall_s, u) - 1.0),
        ),
        ("sim.report.assemble_ms", ms(Name::ReportAssemble)),
        ("sim.report.to_json_ms", ms(Name::ReportToJson)),
        ("sim.report.json_kb", t.json_bytes as f64 / 1e3),
        ("sim.report.parse_ms", ms(Name::ReportParse)),
        (
            "host.engine.share",
            ratio(own_of(&[Name::HostRun]), window_ns),
        ),
        (
            "host.engine.ns_per_req",
            ratio(own_of(&[Name::HostRun]), requests),
        ),
        ("sim.fleet.shard_ms", ms(Name::FleetShard)),
        ("sim.fleet.merge_ms", ms(Name::FleetMerge)),
        (
            "bench.trace_overhead_ratio",
            ratio(window_s, arms.timed_wall_s) - 1.0,
        ),
        ("bench.spans", spans.len() as f64),
    ];

    if let Some(f) = &t.fleet {
        let p99_max = f.tenant_read_p99_ns.iter().copied().max().unwrap_or(0) as f64;
        let p99_min = f.tenant_read_p99_ns.iter().copied().min().unwrap_or(0) as f64;
        let wall_sum: f64 = f.device_wall_s.iter().sum();
        let largest = f.shard_requests.iter().copied().max().unwrap_or(0) as f64;
        out.extend([
            ("host.queue.full_stalls", f.queue_full_stalls as f64),
            ("host.queue.max_occupancy", f64::from(f.max_occupancy)),
            ("host.tenant.read_p99_us_max", p99_max / 1e3),
            ("host.tenant.p99_spread", ratio(p99_max, p99_min)),
            (
                "sim.fleet.device_wall_max_s",
                f.device_wall_s.iter().copied().fold(0.0, f64::max),
            ),
            ("sim.fleet.device_wall_sum_s", wall_sum),
            ("sim.fleet.imbalance", ratio(largest, requests / devices)),
            (
                "sim.fleet.parallel_efficiency",
                ratio(wall_sum, devices * arms.timed_wall_s),
            ),
        ]);
    }
    out.extend(arms.iso.iter().copied());

    for (name, _) in &out {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not in the per-layer table"
        );
    }
    // Report every name, in table order; what a workload does not measure reads 0.
    PER_LAYER
        .iter()
        .map(|m| {
            let value = out.iter().find(|(n, _)| *n == m.name).map_or(0.0, |x| x.1);
            (m.name, value)
        })
        .collect()
}
