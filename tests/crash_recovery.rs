//! Crash-point sweep: sudden power-off at many seeded flash-op
//! boundaries, recovery, and the acknowledged-write oracle — on all four
//! schemes.
//!
//! Two angles:
//! * a deterministic sweep of 50+ crash points per scheme, dense enough
//!   that the cut demonstrably lands in every interesting place — inside
//!   a host write (torn OOB group), inside the multi-page realignment
//!   path of an across-page write, and inside a post-ack GC episode.
//!   Every single point must recover with zero lost acknowledged sectors
//!   and no torn request exposed;
//! * a proptest over random (crash point, workload seed, scheme) tuples,
//!   so the oracle is also exercised off the sweep's grid.
//!
//! Each point replays the crash workload ([`aftl_sim::crash::workload`])
//! through the ordinary replay entry point with the cut armed; the verdict
//! the returned device holds comes from a power-cycle, the OOB-journal
//! rebuild, then a read-back of every acknowledged sector through the
//! rebuilt scheme.

use aftl_core::scheme::SchemeKind;
use aftl_flash::Result;
use aftl_sim::config::CrashConfig;
use aftl_sim::crash::{workload, CrashOutcome};
use aftl_sim::experiment::run_on_device_keep;
use aftl_sim::{SimConfig, Ssd};
use proptest::prelude::*;

/// Crash points per scheme in the deterministic sweep (the issue floor).
const SWEEP_POINTS: u64 = 50;

/// Host writes driven per crash point: enough that the workload outlasts
/// the sweep's largest budget on every scheme (so all 50 cuts fire), with
/// enough overwrite churn on the tiny device that GC triggers inside the
/// budget range.
const SWEEP_WRITES: u64 = 800;

fn crash_config(scheme: SchemeKind, crash_at: u64, checkpoint_every: Option<u64>) -> SimConfig {
    let mut config = SimConfig::test_tiny(scheme);
    config.crash = CrashConfig {
        crash_at: Some(crash_at),
        recover: true,
        checkpoint_every,
    };
    config
}

/// Replay `writes` crash-workload writes with `config`'s cut armed: the
/// run's verdict.
fn crash_point(config: &SimConfig, writes: u64, seed: u64) -> Result<CrashOutcome> {
    let trace = workload(config, writes, seed);
    let (_, ssd) = run_on_device_keep(Ssd::new(config.clone())?, &trace)?;
    Ok(ssd.crash_outcome().expect("a cut was armed").clone())
}

/// Sweep `SWEEP_POINTS` crash budgets for one scheme and demand a clean
/// recovery at every single one. Returns coverage counters so the caller
/// can assert the sweep actually hit the interesting cut sites.
fn sweep(scheme: SchemeKind, checkpoint_every: Option<u64>) -> (u64, u64, u64, u64) {
    let spp = u64::from(SimConfig::test_tiny(scheme).geometry.page_bytes / 512);
    let (mut fired, mut mid_write, mut mid_realign, mut mid_gc) = (0u64, 0u64, 0u64, 0u64);
    // Budgets 40, 80, ... 2000: from "barely past the first writes" to
    // "deep into GC churn", step small enough to land inside multi-page
    // request programs.
    for point in 1..=SWEEP_POINTS {
        let crash_at = point * 40;
        let config = crash_config(scheme, crash_at, checkpoint_every);
        let out = crash_point(&config, SWEEP_WRITES, 0x5EED ^ point)
            .unwrap_or_else(|e| panic!("{} @ {crash_at}: {e:?}", scheme.name()));
        let section = out.to_section();
        assert_eq!(
            section.lost_sectors,
            0,
            "{} @ {crash_at}: lost {} acknowledged sectors",
            scheme.name(),
            section.lost_sectors
        );
        assert!(
            !section.torn_exposed,
            "{} @ {crash_at}: torn request became visible",
            scheme.name()
        );
        assert!(
            section.verified_sectors > 0,
            "{} @ {crash_at}: verified nothing",
            scheme.name()
        );
        fired += u64::from(section.fired);
        mid_write += u64::from(out.torn_extent.is_some());
        mid_realign += u64::from(out.torn_extent.is_some_and(|(_, n)| u64::from(n) > spp));
        mid_gc += u64::from(out.cut_during_gc);
    }
    (fired, mid_write, mid_realign, mid_gc)
}

fn assert_coverage(scheme: SchemeKind, checkpoint_every: Option<u64>) {
    let (fired, mid_write, mid_realign, mid_gc) = sweep(scheme, checkpoint_every);
    let name = scheme.name();
    // The sweep is only meaningful if the cut really fires at (almost)
    // every budget — SWEEP_WRITES outlasts the largest budget by design.
    assert_eq!(
        fired, SWEEP_POINTS,
        "{name}: every budget must cut mid-workload"
    );
    assert!(mid_write > 0, "{name}: no cut landed inside a host write");
    assert!(
        mid_realign > 0,
        "{name}: no cut landed mid-realignment (inside an across-page write)"
    );
    assert!(mid_gc > 0, "{name}: no cut landed inside a GC episode");
}

#[test]
fn sweep_baseline_recovers_every_crash_point() {
    assert_coverage(SchemeKind::Baseline, None);
}

#[test]
fn sweep_mrsm_recovers_every_crash_point() {
    assert_coverage(SchemeKind::Mrsm, None);
}

#[test]
fn sweep_across_recovers_every_crash_point() {
    assert_coverage(SchemeKind::Across, None);
}

#[test]
fn sweep_learned_recovers_every_crash_point() {
    assert_coverage(SchemeKind::Learned, None);
}

/// The checkpointed rebuild must pass the same oracle at every crash
/// point — a checkpoint that forgot the delta (or replayed a stale
/// journal entry over a newer write) would surface here as a lost
/// sector. The election that seeds from the checkpoint is one for every
/// scheme, but what each scheme's image holds is not (whole pages,
/// sub-mapped LPNs, areas), so all four are swept.
#[test]
fn sweep_with_checkpoints_recovers_every_crash_point() {
    for scheme in SchemeKind::WITH_LEARNED {
        assert_coverage(scheme, Some(25));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random crash points off the sweep grid, random workload seeds,
    /// all four schemes: recovery must never lose an acknowledged write
    /// or expose a torn request.
    #[test]
    fn random_crash_points_recover_clean(
        (crash_at, seed, scheme_idx, checkpointed)
            in (40u64..2_400, 0u64..1 << 32, 0usize..4, any::<bool>())) {
        let scheme = SchemeKind::WITH_LEARNED[scheme_idx];
        let every = checkpointed.then_some(30);
        let out = crash_point(&crash_config(scheme, crash_at, every), 300, seed)
            .expect("crash run completes")
            .to_section();
        prop_assert_eq!(out.lost_sectors, 0);
        prop_assert!(!out.torn_exposed);
        prop_assert!(out.verified_sectors > 0);
    }
}
