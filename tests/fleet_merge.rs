//! Fleet-merge properties: every device of a fleet run is exactly a
//! standalone hosted run of its shard under its derived seeds, the fleet
//! run is a pure function of `(config, trace, spec)` for any shard count
//! and seed, and the range sharding covers the LPN space exactly (no
//! gaps, no overlap, no record lost or duplicated). Cutting every
//! device's tenants from the trace in one pass equals sharding it by range
//! and then dealing each shard to its tenants.

use aftl_core::scheme::SchemeKind;
use aftl_host::{ArrivalModel, IssueModel};
use aftl_sim::fleet::{device_seed, fleet_tenants, run_fleet, FleetSpec};
use aftl_sim::{run_hosted, tenants_from_trace, DeviceSummary, RunReport, SimConfig};
use aftl_trace::{sector_ranges, IoOp, IoRecord, Trace};
use proptest::prelude::*;

/// The tiny device, aged so each device's derived warm-up seed shapes
/// its run.
fn tiny_config(scheme: SchemeKind) -> SimConfig {
    let mut config = SimConfig::test_tiny(scheme);
    config.track_content = false;
    config.warmup.used_fraction = 0.6;
    config.warmup.valid_fraction = 0.3;
    config
}

/// Deterministic pseudo-random trace from a seed (splitmix64 streams) —
/// proptest supplies the seed, the generator keeps the records valid.
fn synth_trace(seed: u64, len: usize) -> Trace {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let records = (0..len)
        .map(|i| {
            let r = next();
            IoRecord {
                at_ns: (i as u64) * 2_000,
                sector: r % 4096,
                sectors: 1 + (r >> 32) as u32 % 16,
                op: if r % 4 == 0 { IoOp::Read } else { IoOp::Write },
            }
        })
        .collect();
    Trace::new("prop", records)
}

/// Device `i` of `spec`'s fleet run alone: a hosted run of `shard` under
/// the device's derived seeds.
fn standalone(shard: &Trace, spec: &FleetSpec, i: usize) -> RunReport {
    let mut config = tiny_config(SchemeKind::Across);
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
    run_hosted(config, tenants, &host).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The hard invariant of the fleet layer: for random shard counts,
    /// seeds and workloads, each device's summary and QoS rows equal a
    /// standalone hosted run of its shard with `device_seed(base, i)`
    /// seeds, and two runs of the same fleet are identical on every
    /// histogram, counter and QoS row.
    #[test]
    fn fleet_devices_equal_standalone_hosted_runs(
        (devices, seed, trace_seed, len) in (
            1usize..=5,
            any::<u64>(),
            any::<u64>(),
            50usize..250,
        )
    ) {
        let trace = synth_trace(trace_seed, len);
        let mut spec = FleetSpec::new(devices);
        spec.host.seed = seed;

        let a = run_fleet(tiny_config(SchemeKind::Across), &trace, &spec).unwrap();
        let fleet = a.fleet.as_ref().expect("fleet runs carry topology");
        let rows = &a.qos.as_ref().expect("fleet runs carry QoS").tenants;
        prop_assert_eq!(fleet.per_device.len(), devices);
        prop_assert_eq!(rows.len(), devices);
        let ranges = sector_ranges(trace.max_sector_end(), devices);
        for (i, shard) in trace.shard_by_ranges(&ranges).iter().enumerate() {
            let alone = standalone(shard, &spec, i);
            let want = DeviceSummary {
                device: i as u64,
                range_start: ranges[i].start,
                range_end: ranges[i].end,
                requests: alone.requests,
                sim_span_ns: alone.sim_span_ns,
                flash_programs: alone.flash.programs.total(),
                erases: alone.flash.erases,
                warmup_writes: alone.warmup.writes,
            };
            prop_assert_eq!(&fleet.per_device[i], &want);
            let mut row = alone.qos.expect("hosted runs carry QoS").tenants.remove(0);
            if devices > 1 {
                row.name = format!("d{i}/{}", row.name);
            }
            prop_assert_eq!(&rows[i], &row);
        }

        let b = run_fleet(tiny_config(SchemeKind::Across), &trace, &spec).unwrap();
        prop_assert_eq!(a.requests, b.requests);
        prop_assert_eq!(a.sim_span_ns, b.sim_span_ns);
        prop_assert_eq!(&a.qos, &b.qos);
        prop_assert_eq!(&a.fleet, &b.fleet);
        for (x, y) in [
            (serde_json::to_string(&a.flash), serde_json::to_string(&b.flash)),
            (serde_json::to_string(&a.counters), serde_json::to_string(&b.counters)),
            (serde_json::to_string(&a.latency), serde_json::to_string(&b.latency)),
            (serde_json::to_string(&a.classes), serde_json::to_string(&b.classes)),
        ] {
            prop_assert_eq!(x.unwrap(), y.unwrap());
        }
    }

    /// Consistent range sharding covers the sector space exactly: ranges
    /// tile `[0, span)` with no gap or overlap, and every trace record
    /// lands in exactly one shard.
    #[test]
    fn range_sharding_covers_lpn_space(
        (span, n, trace_seed) in (
            1u64..1_000_000,
            1usize..=32,
            any::<u64>(),
        )
    ) {
        let ranges = sector_ranges(span, n);
        prop_assert_eq!(ranges.len(), n);
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges[ranges.len() - 1].end, span);
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        // Balanced: shard lengths differ by at most one sector.
        let lens: Vec<u64> = ranges.iter().map(|r| r.len()).collect();
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        prop_assert!(max - min <= 1, "lens {:?}", lens);
        prop_assert_eq!(lens.iter().sum::<u64>(), span);

        // Every record routes to exactly one shard; totals conserved.
        let trace = synth_trace(trace_seed, 200);
        let shards = trace.shard_by_ranges(&ranges);
        prop_assert_eq!(shards.len(), n);
        prop_assert_eq!(
            shards.iter().map(|s| s.records.len()).sum::<usize>(),
            trace.records.len()
        );
        for (shard, range) in shards.iter().zip(&ranges) {
            for rec in &shard.records {
                // Records route by their *start* sector; strays beyond the
                // span land in the last shard by construction.
                if range.end < span {
                    prop_assert!(rec.sector < range.end);
                }
                if range.start > 0 {
                    prop_assert!(rec.sector >= range.start);
                }
            }
        }
    }

    /// `fleet_tenants` cuts what `shard_by_ranges` and then
    /// `tenants_from_trace` would build, field for field, for 1–5 devices
    /// and 1–4 tenants — also when the ranges end before the trace does,
    /// so the last device takes the records past them.
    #[test]
    fn fleet_tenants_equal_sharding_then_dealing(
        (devices, per, trace_seed, len, shrink) in (
            1usize..=5,
            1usize..=4,
            any::<u64>(),
            0usize..300,
            1u64..=4,
        )
    ) {
        let trace = synth_trace(trace_seed, len);
        // `shrink` > 1 leaves records past the span the ranges tile.
        let span = trace.max_sector_end() / shrink;
        let ranges = sector_ranges(span, devices);
        let mut spec = FleetSpec::new(devices);
        spec.tenants_per_device = per;
        spec.queue_depth = 5;
        spec.weights = vec![4, 2, 1];
        if trace_seed % 2 == 1 {
            spec.issue = IssueModel::Open(ArrivalModel::Poisson { mean_iat_ns: 900 });
        }
        let cut = fleet_tenants(&trace, &ranges, &spec);
        let shards = trace.shard_by_ranges(&ranges);
        prop_assert_eq!(cut.len(), shards.len());
        for (got, shard) in cut.iter().zip(&shards) {
            let want = tenants_from_trace(
                shard,
                per,
                spec.issue,
                spec.queue_depth,
                &spec.weights,
            );
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(&g.name, &w.name);
                prop_assert_eq!(&g.trace.name, &w.trace.name);
                prop_assert_eq!(&g.trace.records, &w.trace.records);
                prop_assert_eq!(g.trace.records.capacity(), g.trace.records.len());
                prop_assert_eq!(g.issue, w.issue);
                prop_assert_eq!(g.queue_depth, w.queue_depth);
                prop_assert_eq!(g.weight, w.weight);
            }
        }
    }
}
