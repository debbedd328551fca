//! The tracked crash-recovery benchmark: rebuild cost of a power-cycled
//! device under **full OOB scan** vs. **checkpoint + delta replay**, on
//! all four schemes, and the `BENCH_recovery.json` manifest gating the
//! checkpointed rebuild at [`MIN_SCAN_TO_CHECKPOINT_RATIO`]× cheaper.
//!
//! Each arm replays the same seeded crash workload
//! ([`aftl_sim::crash::workload`]) on a crash-armed device, cuts power at
//! the same flash-op boundary, power-cycles and rebuilds the mapping —
//! once with no checkpoint (every programmed page's OOB entry is scanned)
//! and once with a periodic mapping checkpoint (only the post-checkpoint
//! delta is replayed). The
//! number to watch is `rebuild_flash_reads`: flash reads recovery had to
//! issue before the device could serve hosts again. Both arms also carry
//! the acknowledged-write oracle verdict — a manifest with a single lost
//! sector or an exposed torn request is invalid regardless of the ratio.
//!
//! Everything is simulated flash traffic, no wall-clock timing, so the
//! gate reproduces bit-for-bit on every machine.

use aftl_core::scheme::SchemeKind;
use aftl_sim::config::CrashConfig;
use aftl_sim::crash::workload;
use aftl_sim::experiment::run_single_with;
use aftl_sim::{RecoverySection, SimConfig};
use serde::{Deserialize, Serialize};

/// Schema version of `BENCH_recovery.json`. Bump on any field change (2:
/// each arm is a manifest [`RecoverySection`], `crash_at` included).
pub const RECOVERY_SCHEMA_VERSION: u32 = 2;

/// The gate: the full-scan rebuild must issue at least this many times
/// more flash reads than the checkpointed rebuild, on every scheme.
pub const MIN_SCAN_TO_CHECKPOINT_RATIO: f64 = 2.0;

/// Host writes driven into the device before (and up to) the cut.
pub const RECOVERY_WRITES: u64 = 3_000;

/// Flash-op budget the cut is armed with: deep enough into the workload
/// that thousands of pages carry journal entries, early enough that the
/// cut always fires mid-workload.
pub const RECOVERY_CRASH_AT: u64 = 5_000;

/// Checkpoint cadence (host writes) of the checkpointed arm.
pub const RECOVERY_CHECKPOINT_EVERY: u64 = 200;

/// Workload seed (one crash point; the sweep proptest covers many).
pub const RECOVERY_SEED: u64 = 0xC4A5;

/// The crash-experiment device for `scheme`: stock experiment geometry
/// and timing, sector-stamp oracle on (the verdict reads back through the
/// rebuilt scheme), cut armed at `crash_at`.
pub fn recovery_config(
    scheme: SchemeKind,
    crash_at: u64,
    checkpoint_every: Option<u64>,
) -> SimConfig {
    let mut config = SimConfig::experiment(scheme, 8192);
    config.track_content = true;
    config.crash = CrashConfig {
        crash_at: Some(crash_at),
        recover: true,
        checkpoint_every,
    };
    config
}

/// One scheme's scan-vs-checkpoint comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryPair {
    /// Scheme name.
    pub scheme: String,
    /// Full-OOB-scan rebuild.
    pub scan: RecoverySection,
    /// Checkpoint + delta-replay rebuild.
    pub checkpoint: RecoverySection,
    /// `scan.rebuild_flash_reads / checkpoint.rebuild_flash_reads` — the
    /// number the gate checks.
    pub ratio: f64,
}

/// The `BENCH_recovery.json` manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRecoveryManifest {
    /// Manifest schema version ([`RECOVERY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Host writes the crash workload was driven with.
    pub writes: u64,
    /// Flash-op budget the cut was armed with.
    pub crash_at: u64,
    /// Checkpoint cadence (host writes) of the checkpointed arm.
    pub checkpoint_every: u64,
    /// Workload seed.
    pub seed: u64,
    /// The gate ratio the file was validated against.
    pub gate: f64,
    /// Per-scheme pairs, in [`SchemeKind::WITH_LEARNED`] order.
    pub results: Vec<RecoveryPair>,
    /// Smallest per-scheme ratio — what the gate compares.
    pub min_ratio: f64,
}

impl BenchRecoveryManifest {
    /// The pair for `scheme`, if present.
    pub fn pair(&self, scheme: &str) -> Option<&RecoveryPair> {
        self.results.iter().find(|p| p.scheme == scheme)
    }
}

/// Smallest scan/checkpoint rebuild-read ratio over the pairs (0 when a
/// checkpoint arm issued no reads — degenerate, and rejected by
/// validation anyway).
pub fn min_ratio(pairs: &[RecoveryPair]) -> f64 {
    pairs
        .iter()
        .map(|p| p.ratio)
        .fold(f64::INFINITY, f64::min)
        .min(f64::MAX) // keep the JSON finite even for an empty slice
}

/// Replay `writes` crash-workload writes with `config`'s cut armed: the
/// run's recovery section.
fn recover(config: SimConfig, writes: u64, seed: u64) -> aftl_flash::Result<RecoverySection> {
    let trace = workload(&config, writes, seed);
    let report = run_single_with(config, &trace)?;
    Ok(report.recovery.expect("a recovered run reports"))
}

/// Run the scan and checkpoint arms of the canonical crash workload for
/// every scheme and collect the pairs, in [`SchemeKind::WITH_LEARNED`]
/// order.
pub fn measure_recovery() -> Vec<RecoveryPair> {
    SchemeKind::WITH_LEARNED
        .iter()
        .map(|&scheme| {
            let scan_cfg = recovery_config(scheme, RECOVERY_CRASH_AT, None);
            let scan = recover(scan_cfg, RECOVERY_WRITES, RECOVERY_SEED)
                .unwrap_or_else(|e| panic!("{}: scan arm failed: {e:?}", scheme.name()));

            let every = Some(RECOVERY_CHECKPOINT_EVERY);
            let ck_cfg = recovery_config(scheme, RECOVERY_CRASH_AT, every);
            let checkpoint = recover(ck_cfg, RECOVERY_WRITES, RECOVERY_SEED)
                .unwrap_or_else(|e| panic!("{}: checkpoint arm failed: {e:?}", scheme.name()));
            let ratio = if checkpoint.rebuild_flash_reads == 0 {
                0.0
            } else {
                scan.rebuild_flash_reads as f64 / checkpoint.rebuild_flash_reads as f64
            };
            RecoveryPair {
                scheme: scheme.name().to_string(),
                scan,
                checkpoint,
                ratio,
            }
        })
        .collect()
}

/// The canonical `BENCH_recovery.json`: [`measure_recovery`] with its
/// workload echoed.
pub fn recovery_manifest() -> BenchRecoveryManifest {
    let results = measure_recovery();
    BenchRecoveryManifest {
        schema_version: RECOVERY_SCHEMA_VERSION,
        writes: RECOVERY_WRITES,
        crash_at: RECOVERY_CRASH_AT,
        checkpoint_every: RECOVERY_CHECKPOINT_EVERY,
        seed: RECOVERY_SEED,
        gate: MIN_SCAN_TO_CHECKPOINT_RATIO,
        min_ratio: min_ratio(&results),
        results,
    }
}

/// Structural + gate validation of a parsed `BENCH_recovery.json` (CI
/// gate): the schema version matches, every scheme has both arms with the
/// right modes, every arm fired mid-workload, acknowledged writes, and
/// passed the oracle (zero lost sectors, no torn exposure), each recorded
/// ratio agrees with its own rows, and the smallest ratio clears
/// [`MIN_SCAN_TO_CHECKPOINT_RATIO`].
pub fn validate_recovery_manifest(m: &BenchRecoveryManifest) -> std::result::Result<(), String> {
    if m.schema_version != RECOVERY_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != expected {RECOVERY_SCHEMA_VERSION}",
            m.schema_version
        ));
    }
    if m.writes == 0 || m.checkpoint_every == 0 {
        return Err("degenerate workload (0 writes or 0 checkpoint cadence)".into());
    }
    for scheme in SchemeKind::WITH_LEARNED {
        let pair = m
            .pair(scheme.name())
            .ok_or_else(|| format!("results is missing scheme {}", scheme.name()))?;
        for (row, want_mode) in [(&pair.scan, "scan"), (&pair.checkpoint, "checkpoint")] {
            if row.mode != want_mode {
                return Err(format!(
                    "{}: {want_mode} arm recorded mode {:?}",
                    pair.scheme, row.mode
                ));
            }
            if !row.fired {
                return Err(format!(
                    "{}/{want_mode}: the power cut never fired",
                    pair.scheme
                ));
            }
            if row.acked_writes == 0 || row.verified_sectors == 0 {
                return Err(format!(
                    "{}/{want_mode}: degenerate arm (0 acked writes or 0 verified sectors)",
                    pair.scheme
                ));
            }
            if !row.clean() {
                return Err(format!(
                    "{}/{want_mode}: oracle failed ({} lost sectors, torn_exposed {})",
                    pair.scheme, row.lost_sectors, row.torn_exposed
                ));
            }
            if row.rebuild_flash_reads == 0 {
                return Err(format!(
                    "{}/{want_mode}: rebuild issued no flash reads",
                    pair.scheme
                ));
            }
        }
        if pair.checkpoint.journal_replays == 0 {
            return Err(format!(
                "{}: checkpoint arm replayed no journal entries",
                pair.scheme
            ));
        }
        let recomputed =
            pair.scan.rebuild_flash_reads as f64 / pair.checkpoint.rebuild_flash_reads as f64;
        if (pair.ratio - recomputed).abs() > 1e-9 {
            return Err(format!(
                "{}: recorded ratio {:.4} disagrees with its rows ({recomputed:.4})",
                pair.scheme, pair.ratio
            ));
        }
    }
    let recomputed_min = min_ratio(&m.results);
    if (m.min_ratio - recomputed_min).abs() > 1e-9 {
        return Err(format!(
            "recorded min_ratio {:.4} disagrees with its pairs ({recomputed_min:.4})",
            m.min_ratio
        ));
    }
    if m.min_ratio < MIN_SCAN_TO_CHECKPOINT_RATIO {
        return Err(format!(
            "scan/checkpoint ratio {:.3} is below the {MIN_SCAN_TO_CHECKPOINT_RATIO} gate",
            m.min_ratio
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(mode: &str, rebuild_reads: u64) -> RecoverySection {
        RecoverySection {
            crash_at: RECOVERY_CRASH_AT,
            mode: mode.into(),
            fired: true,
            acked_writes: 2000,
            scanned_pages: rebuild_reads,
            journal_replays: if mode == "checkpoint" { 150 } else { 0 },
            rebuild_flash_reads: rebuild_reads,
            recovery_ns: rebuild_reads * 40_000,
            verified_sectors: 40_000,
            lost_sectors: 0,
            torn_exposed: false,
        }
    }

    fn manifest(scan_reads: u64, ck_reads: u64) -> BenchRecoveryManifest {
        let results: Vec<RecoveryPair> = ["FTL", "MRSM", "Across-FTL", "Learned-FTL"]
            .iter()
            .map(|s| RecoveryPair {
                scheme: (*s).to_string(),
                scan: row("scan", scan_reads),
                checkpoint: row("checkpoint", ck_reads),
                ratio: scan_reads as f64 / ck_reads as f64,
            })
            .collect();
        let min = min_ratio(&results);
        BenchRecoveryManifest {
            schema_version: RECOVERY_SCHEMA_VERSION,
            writes: RECOVERY_WRITES,
            crash_at: RECOVERY_CRASH_AT,
            checkpoint_every: RECOVERY_CHECKPOINT_EVERY,
            seed: RECOVERY_SEED,
            gate: MIN_SCAN_TO_CHECKPOINT_RATIO,
            results,
            min_ratio: min,
        }
    }

    #[test]
    fn validation_accepts_a_clean_manifest() {
        validate_recovery_manifest(&manifest(6000, 500)).unwrap();
    }

    #[test]
    fn validation_gates_the_ratio() {
        let m = manifest(6000, 4000); // only 1.5x cheaper
        let err = validate_recovery_manifest(&m).unwrap_err();
        assert!(err.contains("below the"), "{err}");
    }

    #[test]
    fn validation_catches_oracle_and_counter_problems() {
        let mut m = manifest(6000, 500);
        m.results[1].scan.lost_sectors = 2;
        let err = validate_recovery_manifest(&m).unwrap_err();
        assert!(err.contains("oracle failed"), "{err}");

        let mut m = manifest(6000, 500);
        m.results[2].checkpoint.torn_exposed = true;
        let err = validate_recovery_manifest(&m).unwrap_err();
        assert!(err.contains("oracle failed"), "{err}");

        let mut m = manifest(6000, 500);
        m.results.retain(|p| p.scheme != "MRSM");
        let err = validate_recovery_manifest(&m).unwrap_err();
        assert!(err.contains("missing scheme"), "{err}");

        let mut m = manifest(6000, 500);
        m.results[0].ratio = 99.0;
        let err = validate_recovery_manifest(&m).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");

        let mut m = manifest(6000, 500);
        m.results[3].checkpoint.journal_replays = 0;
        let err = validate_recovery_manifest(&m).unwrap_err();
        assert!(err.contains("replayed no journal"), "{err}");

        let mut m = manifest(6000, 500);
        m.results[0].scan.fired = false;
        let err = validate_recovery_manifest(&m).unwrap_err();
        assert!(err.contains("never fired"), "{err}");
    }

    /// A miniature end-to-end pair on one scheme: both arms clean, the
    /// checkpoint arm strictly cheaper (the full-size gate itself runs on
    /// the committed manifest below).
    #[test]
    fn tiny_pair_runs_clean() {
        let mut scan_cfg = recovery_config(SchemeKind::Across, 900, None);
        let mut ck_cfg = recovery_config(SchemeKind::Across, 900, Some(50));
        // Tiny geometry: the experiment device would make this test slow.
        let tiny = SimConfig::test_tiny(SchemeKind::Across);
        scan_cfg.geometry = tiny.geometry;
        scan_cfg.timing = tiny.timing;
        scan_cfg.scheme_cfg = tiny.scheme_cfg;
        ck_cfg.geometry = tiny.geometry;
        ck_cfg.timing = tiny.timing;
        ck_cfg.scheme_cfg = tiny.scheme_cfg;

        let scan = recover(scan_cfg, 500, 11).unwrap();
        let ck = recover(ck_cfg, 500, 11).unwrap();
        assert!(scan.clean() && ck.clean());
        assert_eq!(scan.mode, "scan");
        assert_eq!(ck.mode, "checkpoint");
        assert!(
            ck.rebuild_flash_reads < scan.rebuild_flash_reads,
            "checkpoint {} must undercut scan {}",
            ck.rebuild_flash_reads,
            scan.rebuild_flash_reads
        );
    }

    /// The committed manifest at the repo root must stay schema-valid,
    /// pass the oracle on every arm, and clear the >= 2x rebuild-read
    /// gate — deterministically, on the recorded numbers, so CI never
    /// depends on re-measuring.
    #[test]
    fn committed_manifest_clears_the_rebuild_gate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read committed BENCH_recovery.json: {e}"));
        let m: BenchRecoveryManifest = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse committed BENCH_recovery.json: {e}"));
        validate_recovery_manifest(&m)
            .unwrap_or_else(|e| panic!("committed BENCH_recovery.json: {e}"));
    }
}
