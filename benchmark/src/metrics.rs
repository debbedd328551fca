//! The metric tables: every name the benchmark reports, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` is this
//! file rendered as JSON — `tests/manifest.rs` keeps the two identical.

use aftl_sim::report::RunReport;
use serde_json::Value;

use crate::json::{count, obj, text};
use crate::workloads;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock of the machine running the simulator: noisy, reported as
    /// a median over the run's repeats.
    Host,
    /// The simulated device's clock, or a count it made: repeats exactly
    /// for a given seed.
    Sim,
}

/// A metric a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name in `BENCHMARK.json` and in every output.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median it may worsen by before `--compare`
    /// (and the driver) call it a regression.
    pub bound: f64,
    /// Clock it is read from.
    pub clock: Clock,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    clock: Clock,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        clock,
    }
}

/// The end-to-end metrics, reported for every workload.
///
/// The bounds are as tight as ten runs with ten different seeds on a
/// shared 2-core box allow, which is not tight. Simulated-clock metrics:
/// a seed moves them by several percent (over 40 seeds per workload, the
/// quartile distance of ten runs is 6-9 % of their median on the worst
/// workload, a third of these bounds). For one seed they repeat exactly,
/// so `--compare` also flags any change at all, and `sim_digest` any
/// change in anything. Tail latencies (p99.9) move by 20-35 % with the
/// seed, more than any bound allowed, so they are per-layer metrics.
/// Host-clock metrics: the box drifts by +-8 % from one 15 s run to the
/// next, with minute-long dips of 20 % (CPU time drifts with wall time, so
/// it is the CPU, not the scheduler); ten-run quartile distances were
/// 3-9 % of the median and once 17 %.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", false, 0.25, Clock::Host),
    e2e("replay_kreq_per_s", "kreq/s", true, 0.25, Clock::Host),
    e2e("peak_rss_mb", "MB", false, 0.15, Clock::Host),
    e2e("sim_read_mean_us", "us", false, 0.25, Clock::Sim),
    e2e("sim_write_mean_us", "us", false, 0.20, Clock::Sim),
    e2e("sim_kiops", "kreq/s", true, 0.20, Clock::Sim),
    e2e("waf", "ratio", false, 0.20, Clock::Sim),
    e2e("flash_reads_per_req", "ratio", false, 0.20, Clock::Sim),
    e2e("erases", "count", false, 0.20, Clock::Sim),
];

/// The simulated-clock end-to-end metrics of one run, in table order
/// (the three host-clock ones are measured around the run, not read
/// from its report).
pub fn sim_end_to_end(r: &RunReport) -> Vec<(&'static str, f64)> {
    let host_bytes = r.classes.writes_total().sectors as f64 * 512.0;
    vec![
        ("sim_read_mean_us", r.latency.host_read.mean_ns / 1e3),
        ("sim_write_mean_us", r.latency.host_write.mean_ns / 1e3),
        (
            "sim_kiops",
            r.requests as f64 / (r.sim_span_ns as f64 / 1e9) / 1e3,
        ),
        (
            "waf",
            r.flash.programs.total() as f64 * f64::from(r.page_bytes) / host_bytes,
        ),
        (
            "flash_reads_per_req",
            r.flash.reads.total() as f64 / r.requests as f64,
        ),
        ("erases", r.flash.erases as f64),
    ]
}

/// A metric of a single layer. No bound: these explain, they do not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `layer.what` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when larger is better.
    pub higher_is_better: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The per-layer metrics, from the traced run. Every workload reports
/// every name; a metric that does not apply to a workload (the `host.*`
/// and `sim.fleet.*` ones off the fleet, the extra arms and the isolated
/// per-call costs off their one workload) reads 0 there.
pub const PER_LAYER: [PerLayer; 89] = [
    // trace
    lo("trace.generate_ms", "ms"),
    hi("trace.records", "count"),
    hi("trace.write_ratio", "ratio"),
    hi("trace.across_ratio", "ratio"),
    lo("trace.generate_ns_per_record", "ns"),
    // sim.ssd, sim.warmup
    lo("sim.ssd.new_ms", "ms"),
    lo("sim.ssd.driver_share", "ratio"),
    lo("sim.ssd.read_p999_us", "us"),
    lo("sim.ssd.write_p999_us", "us"),
    lo("sim.warmup.age_ms", "ms"),
    lo("sim.warmup.writes", "count"),
    lo("sim.warmup.ns_per_write", "ns"),
    // core.scheme
    lo("core.scheme.share", "ratio"),
    lo("core.scheme.write_ns_p50", "ns"),
    lo("core.scheme.write_ns_p99", "ns"),
    lo("core.scheme.read_ns_p50", "ns"),
    lo("core.scheme.read_ns_p99", "ns"),
    lo("core.scheme.write_across_ns_mean", "ns"),
    lo("core.scheme.write_aligned_ns_mean", "ns"),
    lo("core.scheme.read_across_ns_mean", "ns"),
    lo("core.scheme.read_aligned_ns_mean", "ns"),
    lo("core.scheme.rmw_reads", "count"),
    lo("core.scheme.dram_accesses", "count"),
    lo("core.scheme.map_table_mb", "MB"),
    hi("core.across.direct_writes", "count"),
    hi("core.across.amerges", "count"),
    lo("core.across.arollbacks", "count"),
    hi("core.learned.predict_hits", "count"),
    lo("core.learned.rebuilds", "count"),
    hi("core.learned.map_ins_saved", "count"),
    // core.gc
    lo("core.gc.share", "ratio"),
    lo("core.gc.episodes", "count"),
    lo("core.gc.migrated_pages", "count"),
    lo("core.gc.erased_blocks", "count"),
    lo("core.gc.call_us_p50", "us"),
    lo("core.gc.call_us_p99", "us"),
    lo("core.gc.ns_per_migrated_page", "ns"),
    lo("core.gc.sim_pause_p99_us", "us"),
    // core.mapping
    lo("core.mapping.cache_lookups", "count"),
    hi("core.mapping.cache_hit_ratio", "ratio"),
    lo("core.mapping.cache_loads", "count"),
    lo("core.mapping.cache_flushes", "count"),
    lo("core.mapping.map_reads", "count"),
    lo("core.mapping.map_programs", "count"),
    hi("core.mapping.pipelined_ratio", "ratio"),
    lo("core.mapping.pmt_get_iso_ns", "ns"),
    lo("core.mapping.pmt_set_iso_ns", "ns"),
    lo("core.mapping.cache_hit_iso_ns", "ns"),
    lo("core.mapping.cache_miss_iso_ns", "ns"),
    lo("core.mapping.engine_serial_iso_ns", "ns"),
    lo("core.mapping.engine_pipelined_iso_ns", "ns"),
    // flash
    lo("flash.reads", "count"),
    lo("flash.programs", "count"),
    lo("flash.erases", "count"),
    lo("flash.gc_migrations", "count"),
    lo("flash.ops_per_req", "ratio"),
    lo("flash.host_ns_per_op", "ns"),
    lo("flash.chip_busy_fraction", "ratio"),
    lo("flash.array.program_iso_ns", "ns"),
    lo("flash.array.read_iso_ns", "ns"),
    lo("flash.array.erase_iso_ns", "ns"),
    lo("flash.array.invalidate_iso_ns", "ns"),
    lo("flash.allocator.alloc_iso_ns", "ns"),
    lo("flash.victims.upsert_iso_ns", "ns"),
    lo("flash.victims.peek_iso_ns", "ns"),
    // sim.observe
    lo("sim.observe.share", "ratio"),
    lo("sim.observe.ns_per_req", "ns"),
    lo("sim.observe.cost_ratio", "ratio"),
    lo("sim.observe.record_iso_ns", "ns"),
    // sim.report
    lo("sim.report.assemble_ms", "ms"),
    lo("sim.report.to_json_ms", "ms"),
    lo("sim.report.json_kb", "kB"),
    lo("sim.report.parse_ms", "ms"),
    // host
    lo("host.engine.share", "ratio"),
    lo("host.engine.ns_per_req", "ns"),
    lo("host.engine.dispatch_iso_ns", "ns"),
    lo("host.arbiter.grant_iso_ns", "ns"),
    lo("host.queue.full_stalls", "count"),
    lo("host.queue.max_occupancy", "count"),
    lo("host.tenant.read_p99_us_max", "us"),
    lo("host.tenant.p99_spread", "ratio"),
    // sim.fleet
    lo("sim.fleet.shard_ms", "ms"),
    lo("sim.fleet.device_wall_max_s", "s"),
    lo("sim.fleet.device_wall_sum_s", "s"),
    lo("sim.fleet.imbalance", "ratio"),
    hi("sim.fleet.parallel_efficiency", "ratio"),
    lo("sim.fleet.merge_ms", "ms"),
    // bench
    lo("bench.trace_overhead_ratio", "ratio"),
    lo("bench.spans", "count"),
];

fn better(higher: bool) -> Value {
    Value::Str(if higher { "higher" } else { "lower" }.to_string())
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let v = obj(vec![
        (
            "command",
            Value::Seq(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths", Value::Seq(vec![text("benchmark")])),
        ("run_seconds", count(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                workloads::ALL
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", better(m.higher_is_better)),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", better(m.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&v).expect("values serialize") + "\n"
}
