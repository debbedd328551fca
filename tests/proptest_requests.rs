//! Property-based data integrity: arbitrary request sequences (sizes,
//! offsets, op mix) must always read back the newest data on every scheme.
//! And clamping a request into the logical space keeps it in range and
//! keeps its offset within its page whenever a placement with that offset
//! fits.

use aftl_core::oracle::Oracle;
use aftl_core::request::HostRequest;
use aftl_core::scheme::SchemeKind;
use aftl_integration::small_ssd;
use aftl_sim::{SimConfig, Ssd};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Op {
    write: bool,
    sector: u64,
    sectors: u32,
}

fn op_strategy(span: u64) -> impl Strategy<Value = Op> {
    (any::<bool>(), 0..span - 40, 1u32..=24).prop_map(|(write, sector, sectors)| Op {
        write,
        sector,
        sectors,
    })
}

fn run_ops(scheme: SchemeKind, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut ssd = small_ssd(scheme);
    let mut oracle = Oracle::new();
    for (i, op) in ops.iter().enumerate() {
        if op.write {
            let mut w = HostRequest::write(i as u64, op.sector, op.sectors);
            oracle.stamp_write(&mut w);
            ssd.submit(&w).unwrap();
        } else {
            let r = HostRequest::read(i as u64, op.sector, op.sectors);
            let done = ssd.submit(&r).unwrap();
            let v = oracle.check_read(&r, &done.served);
            prop_assert!(v.is_empty(), "{}: {:?}", scheme.name(), v);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn across_ftl_integrity(ops in proptest::collection::vec(op_strategy(4096), 1..300)) {
        run_ops(SchemeKind::Across, &ops)?;
    }

    #[test]
    fn baseline_integrity(ops in proptest::collection::vec(op_strategy(4096), 1..300)) {
        run_ops(SchemeKind::Baseline, &ops)?;
    }

    #[test]
    fn mrsm_integrity(ops in proptest::collection::vec(op_strategy(4096), 1..300)) {
        run_ops(SchemeKind::Mrsm, &ops)?;
    }

    /// Dense hammering of one page-boundary neighbourhood: the worst case
    /// for area conflicts, merges and rollbacks.
    #[test]
    fn across_ftl_boundary_hammering(ops in proptest::collection::vec(
        (any::<bool>(), 0u64..48, 1u32..=16).prop_map(|(write, sector, sectors)| Op {
            write, sector, sectors
        }), 1..400))
    {
        run_ops(SchemeKind::Across, &ops)?;
    }
}

/// The tiny test device, whose logical space the clamp properties wrap
/// into.
fn tiny() -> Ssd {
    Ssd::new(SimConfig::test_tiny(SchemeKind::Baseline)).unwrap()
}

#[test]
fn an_aligned_page_past_the_end_wraps_aligned() {
    let ssd = tiny();
    let (cap, spp) = (ssd.logical_sectors(), ssd.spp());
    for sector in [cap, cap + u64::from(spp), 7 * cap] {
        let mut req = HostRequest::write(0, sector, spp);
        ssd.clamp(&mut req);
        assert!(req.sector + u64::from(spp) <= cap, "{req:?}");
        assert!(!req.is_across_page(spp), "{sector} wrapped to {req:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any request: clamped, it lies in the logical space with its length
    /// capped at the space; one already inside is untouched; one that
    /// wrapped keeps its offset within its page when some placement with
    /// that offset fits.
    #[test]
    fn clamp_keeps_requests_in_range_and_in_phase(
        (sector, long, x) in (0u64..1 << 20, any::<bool>(), any::<u64>())
    ) {
        let ssd = tiny();
        let (cap, spp) = (ssd.logical_sectors(), u64::from(ssd.spp()));
        // Mostly short requests; sometimes one near or past the whole space.
        let sectors = if long { cap - 8 + x % 24 } else { 1 + x % 48 } as u32;
        let sector = if long { sector % 64 } else { sector % (4 * cap) };
        let mut req = HostRequest::write(0, sector, sectors);
        ssd.clamp(&mut req);
        let len = u64::from(sectors).min(cap);
        prop_assert_eq!(u64::from(req.sectors), len);
        prop_assert!(req.sector + len <= cap, "{:?} past {}", req, cap);
        if sector + u64::from(sectors) <= cap {
            prop_assert!(req.sector == sector, "in-range {} moved to {:?}", sector, req);
        } else if sector % spp + len <= cap {
            prop_assert!(req.sector % spp == sector % spp, "{} wrapped to {:?}", sector, req);
        }
    }
}
