//! Sudden-power-off runs: a power cut is an option of every run. With
//! `config.crash.crash_at` set, the device step that replay, hosted and
//! fleet runs drive ([`crate::experiment`]) arms the cut on an unaged
//! device, stamps every write with a generation, checkpoints on the
//! configured cadence and stops serving once the cut fires. At the end of
//! the run, with `recover` set, the device is power-cycled, its mapping
//! rebuilt from the OOB journal and the result verified against the
//! acknowledged-write oracle; the verdict is a [`CrashOutcome`], held by
//! the returned device ([`Ssd::crash_outcome`]) and folded into the
//! manifest's `recovery` section. [`workload`] is the deterministic
//! write-heavy trace the crash tests and the recovery bench replay.
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
//! The oracle records a write only when `submit` returns `Ok`, so
//! condition 2 falls out of condition 1: the torn generation is simply
//! never expected.

use aftl_core::oracle::Oracle;
use aftl_core::recovery::RecoveryMode;
use aftl_core::request::{HostRequest, ReqKind};
use aftl_flash::{FlashError, Nanos, Result};
use aftl_trace::{IoOp, IoRecord, Trace};

use crate::config::SimConfig;
use crate::report::RecoverySection;
use crate::ssd::{Completed, Ssd};

/// What a crash-armed run observed: its manifest section — the budget,
/// whether the cut fired, what recovery cost and the oracle's verdict —
/// and where the cut landed.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    section: RecoverySection,
    /// Extent (start sector, sector count) of the torn request, when the
    /// cut interrupted a host write (its OOB group was left unsealed). A
    /// count above the device's sectors-per-page means the cut landed
    /// mid-realignment: inside the multi-page packing/area path of an
    /// across-page write.
    pub torn_extent: Option<(u64, u32)>,
    /// The cut fired during GC, after the triggering write was already
    /// acknowledged and sealed.
    pub cut_during_gc: bool,
}

impl CrashOutcome {
    /// The manifest section this outcome contributes to a v9
    /// [`crate::report::RunReport`].
    pub fn to_section(&self) -> RecoverySection {
        self.section.clone()
    }
}

/// The deterministic crash workload: `writes` seeded writes, one every
/// microsecond, over the first third of `config`'s logical space — single
/// sectors, whole pages and across-page extents up to three pages long,
/// so realignment (MRSM packing, Across areas, AMerge) stays exercised
/// right up to a cut.
pub fn workload(config: &SimConfig, writes: u64, seed: u64) -> Trace {
    let spp = u64::from(config.geometry.sectors_per_page());
    let span_sectors = config.scheme_cfg.logical_pages * spp;
    let records = (0..writes)
        .map(|i| {
            // SplitMix64 keeps the workload a pure function of (seed, index).
            let mut z = seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let sectors = match z % 4 {
                0 => 1 + (z >> 8) % spp,
                1 => spp,
                2 => spp + 1 + (z >> 8) % spp,
                _ => 2 * spp + 1 + (z >> 8) % spp,
            };
            // A small footprint, so overwrites pile up and GC triggers
            // within a few hundred writes.
            let span = (span_sectors / 3).max(sectors + 1);
            IoRecord {
                at_ns: i * 1_000,
                sector: (z >> 16) % (span - sectors),
                sectors: sectors as u32,
                op: IoOp::Write,
            }
        })
        .collect();
    Trace::new(format!("crash(seed={seed},writes={writes})"), records)
}

/// An armed power cut's part of a run: the acknowledged-write oracle, the
/// write count that paces checkpoints, the request the cut tore, and when
/// verification may start.
#[derive(Default)]
pub(crate) struct Cut {
    oracle: Oracle,
    writes: u64,
    torn: Option<HostRequest>,
    /// One microsecond after the last request the run offered: the first
    /// verification read's arrival.
    verify_at: Nanos,
}

impl Cut {
    /// Ready `req` for a crash-armed device: `false` once the cut has
    /// fired (the device serves nothing more); else stamp a write's
    /// generation, after a checkpoint when one is due.
    pub(crate) fn admit(&mut self, ssd: &mut Ssd, req: &mut HostRequest) -> bool {
        self.verify_at = req.at_ns + 1_000;
        if ssd.powered_off() {
            return false;
        }
        if req.kind == ReqKind::Write {
            let every = ssd.config().crash.checkpoint_every.unwrap_or(0);
            if every > 0 && self.writes > 0 && self.writes.is_multiple_of(every) {
                ssd.take_checkpoint();
            }
            self.writes += 1;
            self.oracle.stamp(req);
        }
        true
    }

    /// Note how the device answered an admitted request: an acknowledged
    /// write becomes expected, a request the cut interrupted is torn.
    pub(crate) fn settle(&mut self, req: &HostRequest, done: &Result<Completed>) {
        match done {
            Ok(_) if req.kind == ReqKind::Write => self.oracle.acknowledge(req),
            Err(FlashError::PowerCut) => self.torn = Some(*req),
            _ => {}
        }
    }

    /// The run's verdict. With `recover` set: power-cycle, rebuild, and
    /// read back every acknowledged sector, then the torn write — these
    /// verification reads are the one host traffic outside the device
    /// step. `config.track_content` must be on.
    pub(crate) fn verdict(self, ssd: &mut Ssd, acked_writes: u64) -> Result<CrashOutcome> {
        let crash = ssd.config().crash;
        let fired = ssd.powered_off();
        let torn = self.torn.filter(|t| t.kind == ReqKind::Write);
        let mode = match crash.checkpoint_every {
            Some(_) => RecoveryMode::Checkpoint,
            None => RecoveryMode::Scan,
        };
        let mut r = RecoverySection {
            crash_at: crash.crash_at.expect("a cut is armed"),
            fired,
            mode: mode.as_str().to_string(),
            acked_writes,
            ..RecoverySection::default()
        };
        // A cut-only run (`--crash-at` without `--recover`) reports where
        // the run died; the device stays powered off.
        if crash.recover {
            assert!(
                ssd.config().track_content,
                "crash verification needs the sector-stamp oracle (track_content)"
            );
            // Power-cycle and rebuild (a run the cut never reached
            // exercises recovery of a fully committed journal).
            let stats = ssd.power_cycle_recover()?;
            r.mode = stats.mode.as_str().to_string();
            (r.scanned_pages, r.journal_replays) = (stats.scanned_pages, stats.journal_replays);
            (r.rebuild_flash_reads, r.recovery_ns) = (stats.rebuild_flash_reads, stats.recovery_ns);

            // Oracle pass 1: every acknowledged sector serves its
            // acknowledged generation. Reads go through the rebuilt
            // scheme, so this also exercises recovered map pages and (for
            // Across) surviving areas.
            let mut t = self.verify_at;
            for sector in self.oracle.sectors() {
                let read = HostRequest::read(t, sector, 1);
                t += 1_000;
                let done = ssd.submit(&read)?;
                match self.oracle.check_read(&read, &done.served).is_empty() {
                    true => r.verified_sectors += 1,
                    false => r.lost_sectors += 1,
                }
            }

            // Oracle pass 2: no sector of the torn write serves the torn
            // generation (pass 1 already pinned them to their pre-cut
            // values; this asserts the stronger atomicity claim directly,
            // including for sectors no acknowledged write had covered).
            if let Some(cut) = torn {
                let read = HostRequest::read(t, cut.sector, cut.sectors);
                let done = ssd.submit(&read)?;
                r.torn_exposed = done.served.iter().any(|s| s.version == cut.version);
            }
        }
        Ok(CrashOutcome {
            section: r,
            torn_extent: torn.map(|t| (t.sector, t.sectors)),
            cut_during_gc: fired && self.torn.is_none(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrashConfig;
    use crate::experiment::run_on_device_keep;
    use aftl_core::scheme::SchemeKind;

    /// Replay the crash workload with `config`'s cut armed: the verdict.
    fn crash_point(config: &SimConfig, writes: u64, seed: u64) -> Result<RecoverySection> {
        let trace = workload(config, writes, seed);
        let (_, ssd) = run_on_device_keep(Ssd::new(config.clone())?, &trace)?;
        Ok(ssd.crash_outcome().expect("a cut was armed").to_section())
    }

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
            let out = crash_point(&crash_config(kind, 700), 400, 7).unwrap();
            assert!(out.fired, "{}: budget must fire mid-workload", kind.name());
            assert!(out.acked_writes > 0);
            assert!(
                out.clean(),
                "{}: lost {} torn {}",
                kind.name(),
                out.lost_sectors,
                out.torn_exposed
            );
            assert!(out.scanned_pages > 0);
            assert_eq!(out.mode, "scan");
        }
    }

    #[test]
    fn checkpoint_mode_replays_fewer_pages_than_scan() {
        for kind in SchemeKind::WITH_LEARNED {
            let mut scan_cfg = crash_config(kind, 900);
            scan_cfg.crash.checkpoint_every = None;
            let scan = crash_point(&scan_cfg, 500, 11).unwrap();

            let mut ck_cfg = crash_config(kind, 900);
            ck_cfg.crash.checkpoint_every = Some(50);
            let ck = crash_point(&ck_cfg, 500, 11).unwrap();

            assert!(scan.clean() && ck.clean());
            assert_eq!(ck.mode, "checkpoint");
            assert!(
                ck.rebuild_flash_reads < scan.rebuild_flash_reads,
                "{}: checkpoint {} must undercut scan {}",
                kind.name(),
                ck.rebuild_flash_reads,
                scan.rebuild_flash_reads
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
        let out = crash_point(&crash_config(SchemeKind::Across, 2137), 300, 3592197379).unwrap();
        assert!(!out.fired);
        assert_eq!(out.lost_sectors, 0);
        assert!(!out.torn_exposed);
    }

    #[test]
    fn no_crash_run_still_recovers() {
        // Budget far beyond the workload: the cut never fires, recovery
        // rebuilds a fully committed journal and loses nothing.
        let out = crash_point(&crash_config(SchemeKind::Across, u64::MAX / 2), 120, 3).unwrap();
        assert!(!out.fired);
        assert_eq!(out.acked_writes, 120);
        assert!(out.clean());
    }
}
