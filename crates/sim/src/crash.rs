//! Sudden-power-off experiments: drive a deterministic write-heavy
//! workload into a crash-armed device, cut power at a seeded flash-op
//! boundary, power-cycle, rebuild the mapping from the OOB journal and
//! verify the result against an acknowledged-write oracle.
//!
//! The oracle is the crash-consistency contract from DESIGN.md §14:
//!
//! 1. every sector of every write acknowledged before the cut must read
//!    back its acknowledged generation after recovery, and
//! 2. the request in flight when power died (if any) must be invisible —
//!    *no* sector of it may serve the torn generation. Because each
//!    request is one OOB write group, recovery rolls the whole request
//!    back, so a multi-extent across-page write can never be half-visible.
//!
//! The expected-state map is updated only when `submit` returns `Ok`, so
//! condition 2 falls out of condition 1: the torn generation is simply
//! never expected.

use std::collections::HashMap;

use aftl_core::recovery::{RecoveryMode, RecoveryStats};
use aftl_core::request::HostRequest;
use aftl_flash::{FlashError, Result};

use crate::config::SimConfig;
use crate::metrics::Window;
use crate::report::{assemble, DeviceRun, RecoverySection, RunReport};
use crate::ssd::Ssd;
use crate::warmup::WarmupStats;

/// What one crash-point run observed: where the workload stopped, what
/// recovery cost, and whether the oracle passed.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// Flash-op budget the cut was armed with.
    pub crash_at: u64,
    /// Whether the cut fired before the workload ran out of writes.
    pub fired: bool,
    /// The cut interrupted a host write (its OOB group was left unsealed).
    pub cut_mid_write: bool,
    /// Extent (start sector, sector count) of the torn request, when the
    /// cut interrupted a host write. A count above the device's
    /// sectors-per-page means the cut landed mid-realignment: inside the
    /// multi-page packing/area path of an across-page write.
    pub torn_extent: Option<(u64, u32)>,
    /// The cut fired during GC, after the triggering write was already
    /// acknowledged and sealed.
    pub cut_during_gc: bool,
    /// Host writes acknowledged before the cut.
    pub acked_writes: u64,
    /// Rebuild cost counters from [`aftl_core::recovery::recover`].
    pub stats: RecoveryStats,
    /// Sectors read back and checked after recovery.
    pub verified_sectors: u64,
    /// Acknowledged sectors that served the wrong generation (crash
    /// consistency demands 0).
    pub lost_sectors: u64,
    /// A sector of the torn request served the torn generation
    /// (atomicity demands `false`).
    pub torn_exposed: bool,
}

impl CrashOutcome {
    /// The manifest section this outcome contributes to a v9
    /// [`crate::report::RunReport`].
    pub fn to_section(&self) -> RecoverySection {
        RecoverySection {
            crash_at: self.crash_at,
            fired: self.fired,
            mode: self.stats.mode.as_str().to_string(),
            scanned_pages: self.stats.scanned_pages,
            journal_replays: self.stats.journal_replays,
            rebuild_flash_reads: self.stats.rebuild_flash_reads,
            recovery_ns: self.stats.recovery_ns,
            acked_writes: self.acked_writes,
            verified_sectors: self.verified_sectors,
            lost_sectors: self.lost_sectors,
            torn_exposed: self.torn_exposed,
        }
    }
}

/// One request of the deterministic crash workload.
fn workload_request(i: u64, seed: u64, span_sectors: u64, spp: u64) -> (u64, u32) {
    // SplitMix64 keeps the workload deterministic per (seed, index)
    // without threading RNG state through the driver.
    let mut z = seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Length mix: single sectors, page-aligned pages, and across-page
    // extents up to three pages, so realignment (MRSM packing, Across
    // areas, AMerge) stays exercised right up to the cut.
    let sectors = match z % 4 {
        0 => 1 + (z >> 8) % spp,
        1 => spp,
        2 => spp + 1 + (z >> 8) % spp,
        _ => 2 * spp + 1 + (z >> 8) % spp,
    } as u32;
    // Small footprint (first third of logical space) so overwrites pile
    // up and GC triggers within a few hundred writes.
    let span = (span_sectors / 3).max(u64::from(sectors) + 1);
    let sector = (z >> 16) % (span - u64::from(sectors));
    (sector, sectors)
}

/// Run one crash point: arm the cut from `config.crash`, submit up to
/// `writes` deterministic writes (checkpointing per
/// `config.crash.checkpoint_every`), power-cycle once the cut fires,
/// recover, and verify every acknowledged sector. `config.track_content`
/// must be on — the verdict is read back through the rebuilt scheme.
pub fn run_crash_point(config: &SimConfig, writes: u64, seed: u64) -> Result<CrashOutcome> {
    crash_device(config, writes, seed).map(|(outcome, _)| outcome)
}

/// Run one crash point and assemble its manifest: the counter/latency
/// sections cover the whole run (pre-cut workload plus post-recovery
/// verification reads), the class metrics and span the acknowledged
/// writes, and `recovery` the rebuild cost and the oracle verdict. No
/// aging — OOB journaling must cover every programmed page.
pub fn run_crash_single(config: &SimConfig, writes: u64, seed: u64) -> Result<RunReport> {
    run_crash_keep(config, writes, seed).map(|(report, _)| report)
}

/// Like [`run_crash_single`], but hands the recovered device back
/// alongside the report (event-trace export, wear state, …).
pub fn run_crash_keep(config: &SimConfig, writes: u64, seed: u64) -> Result<(RunReport, Ssd)> {
    let started = std::time::Instant::now();
    let (outcome, run) = crash_device(config, writes, seed)?;
    // Cut-only runs (no --recover) carry no recovery section: nothing was
    // rebuilt, so there is nothing to report or verify.
    let recovery = config.crash.recover.then(|| outcome.to_section());
    let wall = started.elapsed().as_secs_f64();
    Ok(assemble(vec![run], None, None, None, recovery, wall))
}

/// The crash workload on a fresh device: the verdict, and the device run
/// whose window recorded every acknowledged write.
fn crash_device(config: &SimConfig, writes: u64, seed: u64) -> Result<(CrashOutcome, DeviceRun)> {
    assert!(
        config.track_content,
        "crash runs need the sector-stamp oracle (track_content)"
    );
    let crash_at = config
        .crash
        .crash_at
        .expect("run_crash_point needs config.crash.crash_at");
    let mut ssd = Ssd::new(config.clone())?;
    ssd.arm_crash(crash_at);

    let spp = u64::from(ssd.spp());
    let span_sectors = ssd.logical_sectors();
    let mut expected: HashMap<u64, u64> = HashMap::new();
    let mut acked_writes = 0u64;
    let mut fired = false;
    let mut cut_mid_write = false;
    let mut cut_during_gc = false;
    let mut torn: Option<HostRequest> = None;
    let mut window = Window::open(&ssd);

    for i in 0..writes {
        if let Some(every) = config.crash.checkpoint_every {
            if every > 0 && i % every == 0 && i > 0 {
                ssd.take_checkpoint();
            }
        }
        let (sector, sectors) = workload_request(i, seed, span_sectors, spp);
        let mut req = HostRequest::write(i * 1_000, sector, sectors);
        req.version = i + 1;
        match ssd.submit(&req) {
            Ok(done) => {
                for s in req.sector..req.end_sector() {
                    expected.insert(s, req.version);
                }
                acked_writes += 1;
                window.record(&done, req.at_ns);
                if ssd.powered_off() {
                    // The cut fired inside the post-ack GC slice: the
                    // write itself is durable and sealed.
                    fired = true;
                    cut_during_gc = true;
                    break;
                }
            }
            Err(FlashError::PowerCut) => {
                fired = true;
                cut_mid_write = true;
                torn = Some(req);
                break;
            }
            Err(e) => return Err(e),
        }
    }

    let mut verified = 0u64;
    let mut lost = 0u64;
    let mut torn_exposed = false;
    let stats = if config.crash.recover {
        // Power-cycle and rebuild (a no-crash run exercises recovery of a
        // fully committed journal).
        let stats = ssd.power_cycle_recover()?;

        // Oracle pass 1: every acknowledged sector serves its
        // acknowledged generation. Reads go through the rebuilt scheme,
        // so this also exercises recovered map pages and (for Across)
        // surviving areas.
        let mut sectors_sorted: Vec<u64> = expected.keys().copied().collect();
        sectors_sorted.sort_unstable();
        let mut t = writes * 1_000;
        for &s in &sectors_sorted {
            let read = HostRequest::read(t, s, 1);
            t += 1_000;
            let done = ssd.submit(&read)?;
            let want = expected[&s];
            if done.served.len() == 1 && done.served[0].version == want {
                verified += 1;
            } else {
                lost += 1;
            }
        }

        // Oracle pass 2: no sector of the torn request serves the torn
        // generation (pass 1 already pinned them to their pre-cut values;
        // this asserts the stronger atomicity claim directly, including
        // for sectors the workload had never written before).
        if let Some(cut) = &torn {
            let read = HostRequest::read(t, cut.sector, cut.sectors);
            let done = ssd.submit(&read)?;
            for s in &done.served {
                if s.version == cut.version {
                    torn_exposed = true;
                }
            }
        }
        stats
    } else {
        // Cut-only run (`--crash-at` without `--recover`): report where
        // the workload died; the device stays powered off.
        RecoveryStats {
            mode: if config.crash.checkpoint_every.is_some() {
                RecoveryMode::Checkpoint
            } else {
                RecoveryMode::Scan
            },
            scanned_pages: 0,
            journal_replays: 0,
            rebuild_flash_reads: 0,
            recovery_ns: 0,
        }
    };

    let outcome = CrashOutcome {
        crash_at,
        fired,
        cut_mid_write,
        torn_extent: torn.as_ref().map(|t| (t.sector, t.sectors)),
        cut_during_gc,
        acked_writes,
        stats,
        verified_sectors: verified,
        lost_sectors: lost,
        torn_exposed,
    };
    let run = DeviceRun {
        window: window.close(&ssd),
        ssd,
        warmup: WarmupStats::default(),
        requests: acked_writes,
        name: format!("crash(seed={seed},writes={writes})"),
    };
    Ok((outcome, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrashConfig;
    use aftl_core::scheme::SchemeKind;

    fn crash_config(scheme: SchemeKind, crash_at: u64) -> SimConfig {
        let mut config = SimConfig::test_tiny(scheme);
        config.crash = CrashConfig {
            crash_at: Some(crash_at),
            recover: true,
            checkpoint_every: None,
        };
        config
    }

    #[test]
    fn crash_point_recovers_clean_on_all_schemes() {
        for kind in SchemeKind::WITH_LEARNED {
            let out = run_crash_point(&crash_config(kind, 700), 400, 7).unwrap();
            assert!(out.fired, "{}: budget must fire mid-workload", kind.name());
            assert!(out.acked_writes > 0);
            assert!(
                out.to_section().clean(),
                "{}: lost {} torn {}",
                kind.name(),
                out.lost_sectors,
                out.torn_exposed
            );
            assert!(out.stats.scanned_pages > 0);
            assert_eq!(out.stats.mode, RecoveryMode::Scan);
        }
    }

    #[test]
    fn checkpoint_mode_replays_fewer_pages_than_scan() {
        for kind in SchemeKind::WITH_LEARNED {
            let mut scan_cfg = crash_config(kind, 900);
            scan_cfg.crash.checkpoint_every = None;
            let scan = run_crash_point(&scan_cfg, 500, 11).unwrap();

            let mut ck_cfg = crash_config(kind, 900);
            ck_cfg.crash.checkpoint_every = Some(50);
            let ck = run_crash_point(&ck_cfg, 500, 11).unwrap();

            assert!(scan.to_section().clean() && ck.to_section().clean());
            assert_eq!(ck.stats.mode, RecoveryMode::Checkpoint);
            assert!(
                ck.stats.rebuild_flash_reads < scan.stats.rebuild_flash_reads,
                "{}: checkpoint {} must undercut scan {}",
                kind.name(),
                ck.stats.rebuild_flash_reads,
                scan.stats.rebuild_flash_reads
            );
        }
    }

    #[test]
    fn retired_area_stays_dead_when_its_killed_page_is_erased_first() {
        // Regression: an area's tag accrues a chain of pages (create,
        // AMerge, GC migration). A rollback kill-record names only the
        // newest seq; once that page's block is erased, an older same-tag
        // page used to win per-tag arbitration and resurrect the area
        // over newer normal pages. Kill records now retire the whole tag
        // up to the seq. This seed/budget combination reproduced the
        // resurrection (no cut fires — the bug was in plain rebuild).
        let out =
            run_crash_point(&crash_config(SchemeKind::Across, 2137), 300, 3592197379).unwrap();
        assert!(!out.fired);
        assert_eq!(out.lost_sectors, 0);
        assert!(!out.torn_exposed);
    }

    #[test]
    fn no_crash_run_still_recovers() {
        // Budget far beyond the workload: the cut never fires, recovery
        // rebuilds a fully committed journal and loses nothing.
        let out = run_crash_point(&crash_config(SchemeKind::Across, u64::MAX / 2), 120, 3).unwrap();
        assert!(!out.fired);
        assert_eq!(out.acked_writes, 120);
        assert!(out.to_section().clean());
    }
}
