//! Fault-injection integrity: with seeded transient read/program/erase
//! faults enabled, every acknowledged write must stay readable with its
//! last-written content — or be explicitly accounted for as an
//! acknowledged loss (`LOST_VERSION`) or a rejected write on a
//! read-only device. Never silent corruption, on any scheme.

mod common;

use aftl_core::oracle::Oracle;
use aftl_core::request::{HostRequest, ReqKind};
use aftl_core::scheme::SchemeKind;
use aftl_flash::{FaultConfig, FlashError};
use aftl_integration::{small_ssd_config, small_ssd_with_faults};
use aftl_sim::Ssd;
use common::shadowed_workload;
use proptest::prelude::*;

fn faulty_config(fault_seed: u64) -> FaultConfig {
    FaultConfig {
        seed: fault_seed,
        read_fail_rate: 0.02,
        program_fail_rate: 0.01,
        erase_fail_rate: 0.01,
        ..FaultConfig::disabled()
    }
}

/// Drive `n` seeded random requests through a fault-injected device under
/// [`shadowed_workload`]'s rule: a served sector carries its last
/// *acknowledged* version, the version of a write the device rejected
/// mid-flight, or the explicit `LOST_VERSION` marker. Anything else is
/// silent corruption and fails the test.
fn faulty_workload(
    scheme: SchemeKind,
    fault_seed: u64,
    workload_seed: u64,
    n: usize,
) -> Result<(), TestCaseError> {
    let mut ssd = small_ssd_with_faults(scheme, faulty_config(fault_seed));
    shadowed_workload(&mut ssd, true, workload_seed, n).map_err(TestCaseError::fail)?;
    // The run must actually have exercised the fault machinery.
    let stats = ssd.array().stats();
    prop_assert!(
        stats.read_faults + stats.program_faults + stats.erase_faults > 0,
        "no faults injected: {:?}",
        stats
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn baseline_integrity_under_faults(seeds in (1u64..1 << 48, any::<u64>())) {
        faulty_workload(SchemeKind::Baseline, seeds.0, seeds.1, 1500)?;
    }

    #[test]
    fn mrsm_integrity_under_faults(seeds in (1u64..1 << 48, any::<u64>())) {
        faulty_workload(SchemeKind::Mrsm, seeds.0, seeds.1, 1500)?;
    }

    #[test]
    fn across_ftl_integrity_under_faults(seeds in (1u64..1 << 48, any::<u64>())) {
        faulty_workload(SchemeKind::Across, seeds.0, seeds.1, 1500)?;
    }

    #[test]
    fn learned_integrity_under_faults(seeds in (1u64..1 << 48, any::<u64>())) {
        faulty_workload(SchemeKind::Learned, seeds.0, seeds.1, 1500)?;
    }
}

/// Spare-block exhaustion degrades to read-only instead of panicking:
/// writes are rejected with a typed error, reads keep serving the data
/// written before the transition.
#[test]
fn spare_threshold_degrades_to_read_only() {
    let fault = FaultConfig {
        min_spare_blocks: 64, // half of the 128-block device
        ..FaultConfig::disabled()
    };
    let mut ssd = small_ssd_with_faults(SchemeKind::Across, fault);
    let spp = u64::from(ssd.spp());
    let mut last_ok: Option<(u64, u64)> = None; // (sector, version)
    let mut rejected = false;
    for i in 0..20_000u64 {
        let mut req = HostRequest::write(i, (i * spp) % (spp * 512), spp as u32);
        req.version = i + 1;
        match ssd.submit(&req) {
            Ok(_) => last_ok = Some((req.sector, req.version)),
            Err(FlashError::ReadOnlyMode) => {
                rejected = true;
                break;
            }
            Err(e) => panic!("unexpected write error: {e}"),
        }
    }
    assert!(rejected, "device never entered read-only mode");
    assert!(ssd.read_only());
    assert!(ssd.write_rejections() > 0);

    // Reads still work and serve the acknowledged content.
    let (sector, version) = last_ok.expect("some write succeeded");
    let read = HostRequest::read(0, sector, spp as u32);
    let done = ssd.submit(&read).expect("reads survive read-only mode");
    assert_eq!(done.kind, ReqKind::Read);
    assert!(
        done.served.iter().all(|s| s.version == version),
        "read-only device must still serve acknowledged data: {:?}",
        done.served
    );

    // Writes keep failing with the typed error, and each is counted.
    let before = ssd.write_rejections();
    let mut w = HostRequest::write(0, 0, spp as u32);
    w.version = u64::MAX - 2;
    assert!(matches!(ssd.submit(&w), Err(FlashError::ReadOnlyMode)));
    assert_eq!(ssd.write_rejections(), before + 1);
}

/// A finite erase-endurance budget wears blocks out for real: sustained
/// overwrites retire them via [`FlashError::WornOut`] and the device ends
/// up read-only rather than panicking.
#[test]
fn endurance_exhaustion_wears_out_blocks() {
    let fault = FaultConfig {
        erase_endurance: 4,
        ..FaultConfig::disabled()
    };
    let mut ssd = small_ssd_with_faults(SchemeKind::Baseline, fault);
    let spp = u64::from(ssd.spp());
    let footprint = 256u64; // pages, repeatedly overwritten to force GC
    let mut version = 0u64;
    'outer: for round in 0..200u64 {
        for p in 0..footprint {
            let mut req = HostRequest::write(round, p * spp, spp as u32);
            version += 1;
            req.version = version;
            match ssd.submit(&req) {
                Ok(_) => {}
                Err(FlashError::ReadOnlyMode) => break 'outer,
                Err(e) => panic!("unexpected write error: {e}"),
            }
        }
    }
    let stats = ssd.array().stats();
    assert!(
        stats.worn_out_blocks > 0,
        "endurance budget never triggered: {stats:?}"
    );
    assert_eq!(stats.worn_out_blocks, stats.retired_blocks);
    assert!(ssd.read_only(), "worn-out device must degrade to read-only");
    // Reads still succeed on the worn-out device.
    let read = HostRequest::read(0, 0, spp as u32);
    ssd.submit(&read).expect("reads survive wear-out");
}

/// A direct write (an across-page write whose two LPNs hold no area) that
/// runs out of blocks leaves no area behind: the device goes read-only
/// and both LPNs keep serving their older, normally mapped data. GC is
/// off (a zero threshold), so the blocks run out inside a write, and the
/// finite wear budget makes the device degrade instead of failing the
/// run. Every LPN is written whole first; then each pair of them is
/// bridged once by an across-page write, so every bridging write is a
/// direct write, until the blocks run out.
#[test]
fn a_failed_direct_write_leaves_older_data_readable() {
    let fault = FaultConfig {
        erase_endurance: 1_000,
        ..FaultConfig::disabled()
    };
    let mut config = small_ssd_config(SchemeKind::Across, fault);
    config.scheme_cfg.gc_threshold = 0.0;
    let lpns = config.scheme_cfg.logical_pages;
    let mut ssd = Ssd::new(config).expect("device");
    let spp = u64::from(ssd.spp());
    let mut oracle = Oracle::new();
    let mut write = |ssd: &mut Ssd, sector: u64| {
        let mut req = HostRequest::write(0, sector, spp as u32);
        oracle.stamp(&mut req);
        let done = ssd.submit(&req);
        if done.is_ok() {
            oracle.acknowledge(&req);
        }
        done.err()
    };
    for lpn in 0..lpns {
        assert_eq!(write(&mut ssd, lpn * spp), None, "page write {lpn}");
    }
    let mut bridged = 0;
    while bridged + 1 < lpns {
        assert!(!ssd.read_only(), "read-only before a write failed");
        match write(&mut ssd, bridged * spp + spp / 2) {
            None => bridged += 2,
            Some(FlashError::ReadOnlyMode) => break,
            Some(e) => panic!("unexpected write error: {e}"),
        }
    }
    assert!(ssd.read_only(), "the blocks never ran out");
    assert!(
        bridged > 0 && bridged + 1 < lpns,
        "the blocks ran out outside a direct write"
    );
    for lpn in 0..lpns {
        let req = HostRequest::read(0, lpn * spp, spp as u32);
        let done = ssd.submit(&req).expect("reads survive read-only mode");
        let violations = oracle.check_read(&req, &done.served);
        assert!(violations.is_empty(), "lpn {lpn}: {violations:?}");
    }
}
