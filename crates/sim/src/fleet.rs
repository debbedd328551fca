//! Fleet runs: N sharded devices, one merged manifest.
//!
//! The hosted path ([`crate::hosted`]) drives *one* simulated SSD. A
//! production deployment serving millions of users runs racks of them, so
//! this module scales the simulation out: the workload's logical sector
//! space is split into N contiguous ranges by the consistent
//! range-sharding function ([`aftl_trace::sector_ranges`]), each range is
//! pinned to its own fully independent simulated device (own flash
//! array, own FTL, own host engine, own seeded RNG streams), the devices
//! run concurrently on worker threads, and their results are merged into
//! a single [`RunReport`] with a [`FleetSection`].
//!
//! Determinism is the design invariant, not an accident:
//!
//! * **Sharding** is pure arithmetic on `(span, N)` — every run computes
//!   identical range boundaries, and a record belongs to exactly one
//!   device (the one owning its first sector).
//! * **Seeds** are split per shard: device `i` ages, injects faults and
//!   paces initiators from streams derived as `seed + i·C` (an odd
//!   64-bit constant), so devices never share an RNG and shard 0 of a
//!   1-device fleet reproduces the unsharded seeds exactly.
//! * **Merging** is a left-to-right fold in shard order over results
//!   collected in input order, so the merged report is a pure function
//!   of `(config, trace, spec)` — thread scheduling cannot reorder it.
//!   Counters sum, latency histograms merge exactly (the PR 1
//!   bucket-count property), and the fleet's simulated span is the
//!   *makespan* (max over devices, which run concurrently in simulated
//!   time).
//!
//! A 1-device fleet is bit-identical to [`crate::hosted::run_hosted`] on
//! every simulated counter — pinned by `tests/fig8_parity.rs`.
//!
//! ```
//! use aftl_core::scheme::SchemeKind;
//! use aftl_sim::fleet::{run_fleet, FleetSpec};
//! use aftl_sim::SimConfig;
//! use aftl_trace::{IoOp, IoRecord, Trace};
//!
//! let records = (0..200u64)
//!     .map(|i| IoRecord {
//!         at_ns: i * 1_000,
//!         sector: (i * 37) % 4096,
//!         sectors: 8,
//!         op: if i % 3 == 0 { IoOp::Read } else { IoOp::Write },
//!     })
//!     .collect();
//! let trace = Trace::new("doc", records);
//! let mut config = SimConfig::test_tiny(SchemeKind::Across);
//! config.track_content = false;
//!
//! let report = run_fleet(config, &trace, &FleetSpec::new(4)).unwrap();
//! let fleet = report.fleet.as_ref().expect("fleet runs carry topology");
//! assert_eq!(fleet.devices, 4);
//! assert_eq!(report.requests, 200, "every record lands on exactly one device");
//! assert_eq!(fleet.per_device.iter().map(|d| d.requests).sum::<u64>(), 200);
//! ```

use aftl_host::{HostConfig, IssueModel, TenantConfig};
use aftl_trace::{sector_ranges, SectorRange, Trace};
use rayon::prelude::*;

use crate::config::SimConfig;
use crate::experiment::DeviceRun;
use crate::hosted::{qos_section, run_device, tenants_from_trace};
use crate::report::{assemble, DeviceSummary, FleetSection, RunReport, TenantQos};
use crate::ssd::Ssd;

/// Odd 64-bit constant for deriving per-device seed streams. Distinct
/// from the per-tenant constant inside `aftl-host`, so device `i` tenant
/// `j` never collides with device `i+j` tenant 0.
const DEVICE_SEED_STRIDE: u64 = 0xD1B5_4A32_D192_ED03;

/// Derive the seed for shard `i` from a base seed. Shard 0 keeps the
/// base unchanged, which is what makes a 1-device fleet reproduce the
/// unsharded run bit for bit.
#[inline]
pub fn device_seed(base: u64, device: usize) -> u64 {
    base.wrapping_add((device as u64).wrapping_mul(DEVICE_SEED_STRIDE))
}

/// How to run a fleet: device count plus the per-device host front-end
/// knobs (every device gets the same front end, with its own derived
/// seeds).
///
/// ```
/// use aftl_sim::fleet::FleetSpec;
/// let spec = FleetSpec::new(8);
/// assert_eq!(spec.devices, 8);
/// assert_eq!(spec.tenants_per_device, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of simulated devices to shard across (min 1).
    pub devices: usize,
    /// Host front-end knobs; `host.seed` is the fleet base seed.
    pub host: HostConfig,
    /// Issue discipline for every tenant on every device.
    pub issue: IssueModel,
    /// Submission-queue depth per tenant.
    pub queue_depth: usize,
    /// Tenants per device (the device's shard is split round-robin
    /// among them, exactly as a single-device hosted run would).
    pub tenants_per_device: usize,
    /// Per-tenant arbitration weights (index = tenant on each device;
    /// missing entries default to 1).
    pub weights: Vec<u32>,
}

impl FleetSpec {
    /// A closed-loop fleet spec with default host knobs: `devices`
    /// devices, one tenant each, 8 outstanding IOs, queue depth 32.
    pub fn new(devices: usize) -> Self {
        FleetSpec {
            devices,
            host: HostConfig::default(),
            issue: IssueModel::Closed { outstanding: 8 },
            queue_depth: 32,
            tenants_per_device: 1,
            weights: Vec::new(),
        }
    }
}

/// Every device's tenants, cut from `trace` in one pass: record `k` of
/// range `i` (in trace order) goes to tenant `k % spec.tenants_per_device`
/// of device `i`. Equal to [`Trace::shard_by_ranges`] followed by
/// [`tenants_from_trace`] on each shard — names, records, issue model,
/// depth and weights — without the shards: each tenant's records are
/// copied once, into a vector of exactly their count.
pub fn fleet_tenants(
    trace: &Trace,
    ranges: &[SectorRange],
    spec: &FleetSpec,
) -> Vec<Vec<TenantConfig>> {
    assert!(!ranges.is_empty(), "cannot shard into zero ranges");
    let per = spec.tenants_per_device;
    assert!(per >= 1, "need at least one tenant");
    // The device owning a record's first sector; one past the last range
    // falls into the last, as in `shard_by_ranges`.
    let device = |sector: u64| {
        ranges
            .partition_point(|range| range.end <= sector)
            .min(ranges.len() - 1)
    };
    let mut counts = vec![0usize; ranges.len()];
    for r in &trace.records {
        counts[device(r.sector)] += 1;
    }
    let mut tenants: Vec<Vec<TenantConfig>> = (counts.iter().enumerate())
        .map(|(i, &count)| {
            (0..per)
                .map(|k| TenantConfig {
                    name: format!("tenant{k}"),
                    trace: Trace {
                        name: format!("{}.r{i}.s{k}", trace.name),
                        records: Vec::with_capacity(count / per + usize::from(k < count % per)),
                    },
                    issue: spec.issue,
                    queue_depth: spec.queue_depth,
                    weight: spec.weights.get(k).copied().unwrap_or(1),
                })
                .collect()
        })
        .collect();
    // Records already dealt to each device: the next goes to tenant
    // `dealt % per`.
    let mut dealt = vec![0usize; ranges.len()];
    for r in &trace.records {
        let i = device(r.sector);
        tenants[i][dealt[i] % per].trace.records.push(*r);
        dealt[i] += 1;
    }
    tenants
}

/// Shard `trace` across `spec.devices` simulated devices by sector
/// range, drive every device's host engine on worker threads, and merge
/// the per-device results into one [`RunReport`] with a
/// [`FleetSection`] describing the topology. Each
/// device is built from `config` with its warm-up and fault seeds
/// re-derived for its shard index.
///
/// ```
/// use aftl_core::scheme::SchemeKind;
/// use aftl_sim::fleet::{device_seed, run_fleet, FleetSpec};
/// use aftl_sim::{run_hosted, tenants_from_trace, SimConfig};
/// use aftl_trace::{sector_ranges, IoOp, IoRecord, Trace};
///
/// let records = (0..120u64)
///     .map(|i| IoRecord { at_ns: i * 500, sector: (i * 11) % 2048, sectors: 4, op: IoOp::Write })
///     .collect();
/// let trace = Trace::new("doc", records);
/// let mut config = SimConfig::test_tiny(SchemeKind::Baseline);
/// config.track_content = false;
///
/// // Device 1 of a 3-device fleet is a standalone hosted run of its
/// // shard under its derived seeds.
/// let spec = FleetSpec::new(3);
/// let fleet = run_fleet(config.clone(), &trace, &spec).unwrap();
/// let shard = &trace.shard_by_ranges(&sector_ranges(trace.max_sector_end(), 3))[1];
/// config.warmup.seed = device_seed(config.warmup.seed, 1);
/// config.fault.seed = device_seed(config.fault.seed, 1);
/// let mut host = spec.host;
/// host.seed = device_seed(host.seed, 1);
/// let tenants = tenants_from_trace(shard, 1, spec.issue, spec.queue_depth, &[]);
/// let alone = run_hosted(config, tenants, &host).unwrap();
/// let d1 = &fleet.fleet.as_ref().unwrap().per_device[1];
/// assert_eq!((d1.requests, d1.sim_span_ns), (alone.requests, alone.sim_span_ns));
/// assert_eq!(d1.flash_programs, alone.flash.programs.total());
/// ```
pub fn run_fleet(
    config: SimConfig,
    trace: &Trace,
    spec: &FleetSpec,
) -> aftl_flash::Result<RunReport> {
    run_fleet_keep(config, trace, spec).map(|(report, _)| report)
}

/// Like [`run_fleet`], but hands device 0 back alongside the report, its
/// observer holding the fleet's merged histograms.
pub fn run_fleet_keep(
    config: SimConfig,
    trace: &Trace,
    spec: &FleetSpec,
) -> aftl_flash::Result<(RunReport, Ssd)> {
    assert!(spec.devices >= 1, "fleet needs at least one device");
    let started = std::time::Instant::now();
    let n = spec.devices;
    let span = trace.max_sector_end();
    let ranges = sector_ranges(span, n);

    // A 1-device fleet takes the exact unsharded path: same trace name,
    // same seeds, same everything as `run_hosted`.
    let tenants = if n == 1 {
        vec![tenants_from_trace(
            trace,
            spec.tenants_per_device,
            spec.issue,
            spec.queue_depth,
            &spec.weights,
        )]
    } else {
        fleet_tenants(trace, &ranges, spec)
    };

    // Device `i` derives its seeds from its shard index, and its tenants
    // are named `d<i>/…` when more than one device contributes QoS rows.
    let devices: Vec<(usize, Vec<TenantConfig>)> = tenants.into_iter().enumerate().collect();
    let drive = |(i, mut tenants): (usize, Vec<TenantConfig>)| {
        let mut config = config.clone();
        config.warmup.seed = device_seed(config.warmup.seed, i);
        config.fault.seed = device_seed(config.fault.seed, i);
        let mut host = spec.host;
        host.seed = device_seed(host.seed, i);
        if n > 1 {
            for t in &mut tenants {
                t.name = format!("d{i}/{}", t.name);
            }
        }
        run_device(config, tenants, &host)
    };
    let runs: aftl_flash::Result<Vec<_>> = devices.into_par_iter().map(drive).collect();
    let (runs, rows): (Vec<DeviceRun>, Vec<Vec<TenantQos>>) = runs?.into_iter().unzip();

    let fleet = FleetSection {
        devices: n as u64,
        span_sectors: span,
        base_seed: spec.host.seed,
        per_device: runs
            .iter()
            .zip(&ranges)
            .enumerate()
            .map(|(i, (run, range))| DeviceSummary {
                device: i as u64,
                range_start: range.start,
                range_end: range.end,
                requests: run.requests,
                sim_span_ns: run.window.span_ns,
                flash_programs: run.window.stats.flash.programs.total(),
                erases: run.window.stats.flash.erases,
                warmup_writes: run.warmup.writes,
            })
            .collect(),
    };
    let qos = Some(qos_section(
        &spec.host,
        rows.into_iter().flatten().collect(),
    ));

    // A 1-device fleet keeps the hosted run's own name: bit-parity with
    // `run_hosted`.
    let name = (n > 1).then(|| format!("fleet{n}:{}", trace.name));
    let wall_seconds = started.elapsed().as_secs_f64();
    Ok(assemble(runs, name, qos, Some(fleet), wall_seconds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_core::scheme::SchemeKind;
    use aftl_trace::{IoOp, IoRecord};

    fn tiny_trace(n: u64) -> Trace {
        let records = (0..n)
            .map(|i| IoRecord {
                at_ns: i * 5_000,
                sector: (i * 7) % 4096,
                sectors: 4 + (i % 8) as u32,
                op: if i % 3 == 0 { IoOp::Read } else { IoOp::Write },
            })
            .collect();
        Trace::new("unit", records)
    }

    fn tiny_config(scheme: SchemeKind) -> SimConfig {
        let mut config = SimConfig::test_tiny(scheme);
        config.track_content = false;
        config
    }

    /// Compile-time proof that a device crosses thread boundaries — the
    /// Send-state audit the fleet refactor requires.
    #[test]
    fn device_state_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::Ssd>();
        assert_send::<SimConfig>();
        assert_send::<aftl_host::TenantConfig>();
    }

    #[test]
    fn single_device_fleet_matches_hosted_run_exactly() {
        let trace = tiny_trace(300);
        let spec = FleetSpec::new(1);
        let fleet = run_fleet(tiny_config(SchemeKind::Across), &trace, &spec).unwrap();

        let tenants =
            crate::hosted::tenants_from_trace(&trace, 1, spec.issue, spec.queue_depth, &[1]);
        let hosted =
            crate::hosted::run_hosted(tiny_config(SchemeKind::Across), tenants, &spec.host)
                .unwrap();

        assert_eq!(
            fleet.trace, hosted.trace,
            "1-device fleet keeps the hosted name"
        );
        assert_eq!(fleet.requests, hosted.requests);
        assert_eq!(fleet.sim_span_ns, hosted.sim_span_ns);
        assert_eq!(
            serde_json::to_string(&fleet.flash),
            serde_json::to_string(&hosted.flash)
        );
        assert_eq!(
            serde_json::to_string(&fleet.counters),
            serde_json::to_string(&hosted.counters)
        );
        assert_eq!(fleet.qos, hosted.qos);
        assert!(fleet.fleet.is_some() && hosted.fleet.is_none());
    }

    /// Device `i` of `spec`'s fleet run alone: a hosted run of its shard
    /// under its derived seeds.
    fn standalone(config: &SimConfig, trace: &Trace, spec: &FleetSpec, i: usize) -> RunReport {
        let ranges = sector_ranges(trace.max_sector_end(), spec.devices);
        let shard = &trace.shard_by_ranges(&ranges)[i];
        let mut config = config.clone();
        config.warmup.seed = device_seed(config.warmup.seed, i);
        config.fault.seed = device_seed(config.fault.seed, i);
        let mut host = spec.host;
        host.seed = device_seed(host.seed, i);
        let tenants = tenants_from_trace(
            shard,
            spec.tenants_per_device,
            spec.issue,
            spec.queue_depth,
            &spec.weights,
        );
        crate::hosted::run_hosted(config, tenants, &host).unwrap()
    }

    #[test]
    fn every_device_equals_its_standalone_hosted_run() {
        let trace = tiny_trace(400);
        for scheme in SchemeKind::ALL {
            let spec = FleetSpec::new(3);
            let report = run_fleet(tiny_config(scheme), &trace, &spec).unwrap();
            let fleet = report.fleet.unwrap();
            let rows = report.qos.unwrap().tenants;
            for (i, device) in fleet.per_device.iter().enumerate() {
                let alone = standalone(&tiny_config(scheme), &trace, &spec, i);
                let want = DeviceSummary {
                    device: i as u64,
                    range_start: device.range_start,
                    range_end: device.range_end,
                    requests: alone.requests,
                    sim_span_ns: alone.sim_span_ns,
                    flash_programs: alone.flash.programs.total(),
                    erases: alone.flash.erases,
                    warmup_writes: alone.warmup.writes,
                };
                assert_eq!(*device, want, "{} device {i}", scheme.name());
                let mut row = alone.qos.unwrap().tenants.remove(0);
                row.name = format!("d{i}/{}", row.name);
                assert_eq!(rows[i], row, "{} device {i}", scheme.name());
            }
        }
    }

    #[test]
    fn fleet_shards_cover_all_requests_without_duplication() {
        let trace = tiny_trace(500);
        let report = run_fleet(tiny_config(SchemeKind::Mrsm), &trace, &FleetSpec::new(4)).unwrap();
        let fleet = report.fleet.unwrap();
        assert_eq!(fleet.devices, 4);
        assert_eq!(fleet.per_device.len(), 4);
        assert_eq!(
            fleet.per_device.iter().map(|d| d.requests).sum::<u64>(),
            500,
            "every record lands on exactly one device"
        );
        assert_eq!(report.requests, 500);
        // Ranges tile [0, span).
        assert_eq!(fleet.per_device[0].range_start, 0);
        assert_eq!(
            fleet.per_device.last().unwrap().range_end,
            fleet.span_sectors
        );
        for w in fleet.per_device.windows(2) {
            assert_eq!(w[0].range_end, w[1].range_start);
        }
        // QoS rows are prefixed per device and all tenants are present.
        let qos = report.qos.unwrap();
        assert_eq!(qos.tenants.len(), 4);
        assert!(qos.tenants[0].name.starts_with("d0/"));
        assert!(qos.tenants[3].name.starts_with("d3/"));
    }

    #[test]
    fn fleet_runs_are_deterministic_for_fixed_seed() {
        let trace = tiny_trace(250);
        let run =
            || run_fleet(tiny_config(SchemeKind::Across), &trace, &FleetSpec::new(3)).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.qos, b.qos);
        assert_eq!(a.fleet, b.fleet);
        assert_eq!(a.sim_span_ns, b.sim_span_ns);
        assert_eq!(
            serde_json::to_string(&a.flash),
            serde_json::to_string(&b.flash)
        );
    }

    #[test]
    fn a_fleets_recovery_folds_its_devices_sections() {
        let mut config = SimConfig::test_tiny(SchemeKind::Across);
        config.crash = crate::config::CrashConfig {
            crash_at: Some(700),
            recover: true,
            checkpoint_every: Some(25),
        };
        let trace = crate::crash::workload(&config, 800, 5);
        let spec = FleetSpec::new(2);
        let fleet = run_fleet(config.clone(), &trace, &spec).unwrap();
        let sections: Vec<_> = (0..2)
            .map(|i| {
                let report = standalone(&config, &trace, &spec, i);
                report.recovery.expect("each device recovered")
            })
            .collect();
        let [a, b] = &sections[..] else {
            unreachable!()
        };
        assert!(a.fired && b.fired && a.clean() && b.clean());
        assert!(a.recovery_ns > 0 && b.recovery_ns > 0, "max and sum differ");
        let folded = crate::report::RecoverySection {
            crash_at: 700,
            fired: true,
            mode: "checkpoint".into(),
            scanned_pages: a.scanned_pages + b.scanned_pages,
            journal_replays: a.journal_replays + b.journal_replays,
            rebuild_flash_reads: a.rebuild_flash_reads + b.rebuild_flash_reads,
            recovery_ns: a.recovery_ns.max(b.recovery_ns),
            acked_writes: a.acked_writes + b.acked_writes,
            verified_sectors: a.verified_sectors + b.verified_sectors,
            lost_sectors: 0,
            torn_exposed: false,
        };
        assert_eq!(fleet.recovery, Some(folded));
    }

    #[test]
    fn device_seed_derivation_splits_streams() {
        assert_eq!(device_seed(42, 0), 42, "shard 0 keeps the base seed");
        let s: Vec<u64> = (0..8).map(|i| device_seed(42, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8, "derived seeds are pairwise distinct");
    }
}
