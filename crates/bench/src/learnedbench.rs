//! The tracked learned-mapping benchmark: **map-read traffic** of all four
//! schemes on the fig8-small workload, and the `BENCH_learned.json`
//! manifest gating the learned scheme's map-in reduction vs. the baseline
//! FTL.
//!
//! The learned scheme replaces translation-page "double reads" with
//! piecewise-linear predictions verified by the on-flash LPN tag, so the
//! number to watch is `flash.reads.map` over the measured window: every
//! map-kind read is a PMT page fetched from flash because the mapping
//! cache missed and no model covered the LPN. The gate asserts the
//! learned scheme issues at least [`MIN_MAP_READ_REDUCTION`] fewer of
//! them than the baseline FTL on the same aged device and trace.
//!
//! Alongside the traffic rows the manifest records a **read-parity**
//! section: a content-tracked side-by-side replay (same stamped requests
//! into a baseline and a learned device) proving every read returned
//! bit-identical sector versions on both, each also checked against the
//! write oracle. Everything is seeded, so both the gate and the parity
//! counts reproduce on every machine.

use aftl_core::oracle::Oracle;
use aftl_core::request::ReqKind;
use aftl_core::scheme::SchemeKind;
use aftl_sim::experiment::sweep;
use aftl_sim::report::RunReport;
use aftl_sim::Ssd;
use aftl_trace::Trace;
use serde::{Deserialize, Serialize};

use crate::replay::{fig8_small_config, fig8_small_trace, FIG8_SMALL_SCALE};

/// Schema version of `BENCH_learned.json`. Bump on any field change.
pub const LEARNED_SCHEMA_VERSION: u32 = 1;

/// The gate: the learned scheme's map-in flash reads on fig8-small must
/// undercut the baseline FTL's by at least this fraction.
pub const MIN_MAP_READ_REDUCTION: f64 = 0.20;

/// Trace-length scale of the read-parity replay. Smaller than the
/// traffic runs — parity compares every served sector of every read on
/// two content-tracked devices, which is memory- and time-heavy.
pub const PARITY_SCALE: f64 = 0.003;

/// DRAM budget of the constrained mapping cache, in translation pages.
/// The stock fig8-small cache (2 MB floor) holds the whole PMT, so *no*
/// scheme ever issues a map-in and there is no double-read traffic to
/// kill. The learned comparison runs every scheme with this many resident
/// translation pages instead — the LearnedFTL paper's DRAM-constrained
/// setting — so cache misses, and therefore map-ins, actually happen.
pub const LEARNED_CACHE_TPAGES: u64 = 2;

/// The DRAM-constrained fig8-small device for `scheme`: stock geometry,
/// aging and timing, mapping cache shrunk to [`LEARNED_CACHE_TPAGES`].
/// Applied to all four schemes, so the comparison stays apples-to-apples.
pub fn learned_traffic_config(scheme: SchemeKind) -> aftl_sim::SimConfig {
    let mut config = fig8_small_config(scheme);
    config.scheme_cfg.cache_bytes = LEARNED_CACHE_TPAGES * u64::from(config.geometry.page_bytes);
    config
}

/// One scheme's map-read traffic on the fig8-small workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapTrafficRow {
    /// Scheme name.
    pub scheme: String,
    /// Host requests replayed in the measured window.
    pub requests: u64,
    /// Map-kind flash reads (PMT page fetches) — the "double read" count.
    pub map_reads: u64,
    /// Data + across-kind flash reads.
    pub data_reads: u64,
    /// Map share of all flash reads.
    pub map_read_share: f64,
    /// Mapping-cache misses over the window (each is a potential map-in).
    pub cache_misses: u64,
    /// Mean host read latency (ms).
    pub read_latency_ms: f64,
    /// Mean host write latency (ms).
    pub write_latency_ms: f64,
    /// Learned-model predictions whose verify read confirmed the PPN
    /// (zero for the paper's three schemes).
    pub predict_hits: u64,
    /// Predictions the tag check refuted (fell back to the PMT).
    pub mispredicts: u64,
    /// Segment rebuilds triggered by punch-out churn.
    pub segment_rebuilds: u64,
    /// Map-in flash reads the model avoided (cache-miss reads served by a
    /// verified prediction).
    pub map_ins_saved: u64,
}

impl MapTrafficRow {
    /// Extract the traffic row from a run manifest.
    pub fn of(report: &RunReport) -> Self {
        let reads = report.flash.reads;
        let total = reads.data + reads.across + reads.map;
        MapTrafficRow {
            scheme: report.scheme.name().to_string(),
            requests: report.requests,
            map_reads: reads.map,
            data_reads: reads.data + reads.across,
            map_read_share: if total == 0 {
                0.0
            } else {
                reads.map as f64 / total as f64
            },
            cache_misses: report.cache.misses,
            read_latency_ms: report.read_latency_ms(),
            write_latency_ms: report.write_latency_ms(),
            predict_hits: report.learned.predict_hits,
            mispredicts: report.learned.mispredicts,
            segment_rebuilds: report.learned.segment_rebuilds,
            map_ins_saved: report.learned.map_ins_saved,
        }
    }
}

/// Result of the content-tracked side-by-side replay: every read's served
/// sector versions compared between the baseline FTL and the learned
/// scheme, both also checked against the write oracle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadParity {
    /// Trace-length scale the parity replay ran at.
    pub scale: f64,
    /// Reads whose served vectors were compared.
    pub checked_reads: u64,
    /// Reads where the two devices served different sector versions
    /// (must be 0).
    pub mismatches: u64,
    /// Oracle violations on either device (must be 0).
    pub oracle_violations: u64,
}

/// The `BENCH_learned.json` manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchLearnedManifest {
    /// Manifest schema version ([`LEARNED_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload identifier.
    pub workload: String,
    /// Trace-length scale the traffic rows were measured at.
    pub scale: f64,
    /// The gate fraction the file was validated against.
    pub gate: f64,
    /// Per-scheme traffic rows, in [`SchemeKind::WITH_LEARNED`] order.
    pub results: Vec<MapTrafficRow>,
    /// `1 − learned.map_reads / ftl.map_reads` — the number the gate
    /// checks, recorded so the file and the gate agree.
    pub map_read_reduction: f64,
    /// Read-parity proof for the learned scheme vs. the baseline FTL.
    pub parity: ReadParity,
}

impl BenchLearnedManifest {
    /// The traffic row for `scheme`, if present.
    pub fn row(&self, scheme: &str) -> Option<&MapTrafficRow> {
        self.results.iter().find(|r| r.scheme == scheme)
    }
}

/// Map-in reduction of the learned row vs. the FTL row.
pub fn map_read_reduction(rows: &[MapTrafficRow]) -> f64 {
    let ftl = rows
        .iter()
        .find(|r| r.scheme == SchemeKind::Baseline.name());
    let learned = rows.iter().find(|r| r.scheme == SchemeKind::Learned.name());
    match (ftl, learned) {
        (Some(f), Some(l)) if f.map_reads > 0 => 1.0 - l.map_reads as f64 / f.map_reads as f64,
        _ => 0.0,
    }
}

/// Replay `trace` on the aged fig8-small device under every scheme and
/// collect the traffic rows, in [`SchemeKind::WITH_LEARNED`] order.
pub fn measure_map_traffic(trace: &Trace) -> Vec<MapTrafficRow> {
    let device = |scheme| Ssd::new(learned_traffic_config(scheme)).expect("fig8-small device");
    let devices = SchemeKind::WITH_LEARNED.map(device).into();
    let reports = sweep(devices, std::slice::from_ref(trace)).expect("fig8-small replay succeeds");
    reports.iter().map(MapTrafficRow::of).collect()
}

/// Side-by-side content-tracked replay of `trace` on a baseline and a
/// learned device: identical aging, identical stamped requests, every
/// read's served sector versions compared for equality and checked
/// against the oracle. Panics only on simulation errors; mismatches are
/// *counted* so validation decides how loudly to fail.
pub fn read_parity(trace: &Trace, scale: f64) -> ReadParity {
    let build = |scheme: SchemeKind| -> Ssd {
        let mut config = learned_traffic_config(scheme);
        config.track_content = true;
        let mut ssd = Ssd::new(config).expect("parity device builds");
        let warm = ssd.config().warmup;
        aftl_sim::warmup::age(&mut ssd, &warm).expect("parity aging succeeds");
        ssd
    };
    let mut ftl = build(SchemeKind::Baseline);
    let mut learned = build(SchemeKind::Learned);

    let mut oracle = Oracle::new();
    let mut checked_reads = 0u64;
    let mut mismatches = 0u64;
    let mut oracle_violations = 0u64;
    for rec in &trace.records {
        let mut req = ftl.request(rec);
        if req.kind == ReqKind::Write {
            oracle.stamp_write(&mut req);
        }
        let a = ftl.submit(&req).expect("ftl parity request serviced");
        let b = learned
            .submit(&req)
            .expect("learned parity request serviced");
        if req.kind == ReqKind::Read {
            checked_reads += 1;
            if a.served != b.served {
                mismatches += 1;
            }
            oracle_violations += oracle.check_read(&req, &a.served).len() as u64;
            oracle_violations += oracle.check_read(&req, &b.served).len() as u64;
        }
    }
    ReadParity {
        scale,
        checked_reads,
        mismatches,
        oracle_violations,
    }
}

/// The canonical `BENCH_learned.json`: map-read traffic of every scheme on
/// the fig8-small trace at [`FIG8_SMALL_SCALE`], plus the read-parity
/// replay at [`PARITY_SCALE`].
pub fn learned_manifest() -> BenchLearnedManifest {
    let results = measure_map_traffic(&fig8_small_trace(FIG8_SMALL_SCALE));
    BenchLearnedManifest {
        schema_version: LEARNED_SCHEMA_VERSION,
        workload: "fig8-small".to_string(),
        scale: FIG8_SMALL_SCALE,
        gate: MIN_MAP_READ_REDUCTION,
        map_read_reduction: map_read_reduction(&results),
        results,
        parity: read_parity(&fig8_small_trace(PARITY_SCALE), PARITY_SCALE),
    }
}

/// Structural + gate validation of a parsed `BENCH_learned.json` (CI
/// gate): the schema version matches, every scheme has a sane row, the
/// learned scheme actually predicted (nonzero hits and savings), the
/// recorded reduction agrees with its own rows, parity is clean, and the
/// reduction clears [`MIN_MAP_READ_REDUCTION`].
pub fn validate_learned_manifest(m: &BenchLearnedManifest) -> std::result::Result<(), String> {
    if m.schema_version != LEARNED_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != expected {LEARNED_SCHEMA_VERSION}",
            m.schema_version
        ));
    }
    if m.workload.is_empty() {
        return Err("empty workload name".into());
    }
    for scheme in SchemeKind::WITH_LEARNED {
        let row = m
            .row(scheme.name())
            .ok_or_else(|| format!("results is missing scheme {}", scheme.name()))?;
        if row.requests == 0 {
            return Err(format!("{}: degenerate row (0 requests)", scheme.name()));
        }
        if scheme == SchemeKind::Learned {
            if row.predict_hits == 0 {
                return Err("learned row has zero predict hits".into());
            }
            if row.map_ins_saved == 0 {
                return Err("learned row saved zero map-ins".into());
            }
        } else if row.predict_hits != 0 || row.map_ins_saved != 0 {
            return Err(format!(
                "{}: non-learned scheme reports learned counters",
                scheme.name()
            ));
        }
    }
    let recomputed = map_read_reduction(&m.results);
    if (m.map_read_reduction - recomputed).abs() > 1e-9 {
        return Err(format!(
            "recorded map_read_reduction {:.4} disagrees with its rows ({recomputed:.4})",
            m.map_read_reduction
        ));
    }
    if m.parity.checked_reads == 0 {
        return Err("parity section checked zero reads".into());
    }
    if m.parity.mismatches != 0 {
        return Err(format!(
            "learned reads diverged from FTL on {} of {} reads",
            m.parity.mismatches, m.parity.checked_reads
        ));
    }
    if m.parity.oracle_violations != 0 {
        return Err(format!(
            "{} oracle violations in the parity replay",
            m.parity.oracle_violations
        ));
    }
    if m.map_read_reduction < MIN_MAP_READ_REDUCTION {
        return Err(format!(
            "map-read reduction {:.3} is below the {MIN_MAP_READ_REDUCTION} gate",
            m.map_read_reduction
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(scheme: &str, map_reads: u64, learned: bool) -> MapTrafficRow {
        MapTrafficRow {
            scheme: scheme.into(),
            requests: 1000,
            map_reads,
            data_reads: 5000,
            map_read_share: 0.2,
            cache_misses: map_reads,
            read_latency_ms: 0.2,
            write_latency_ms: 2.0,
            predict_hits: if learned { 400 } else { 0 },
            mispredicts: if learned { 10 } else { 0 },
            segment_rebuilds: if learned { 5 } else { 0 },
            map_ins_saved: if learned { 300 } else { 0 },
        }
    }

    fn manifest(ftl_map: u64, learned_map: u64) -> BenchLearnedManifest {
        let results = vec![
            row("FTL", ftl_map, false),
            row("MRSM", ftl_map, false),
            row("Across-FTL", ftl_map, false),
            row("Learned-FTL", learned_map, true),
        ];
        let map_read_reduction = map_read_reduction(&results);
        BenchLearnedManifest {
            schema_version: LEARNED_SCHEMA_VERSION,
            workload: "fig8-small".into(),
            scale: 0.01,
            gate: MIN_MAP_READ_REDUCTION,
            results,
            map_read_reduction,
            parity: ReadParity {
                scale: PARITY_SCALE,
                checked_reads: 500,
                mismatches: 0,
                oracle_violations: 0,
            },
        }
    }

    #[test]
    fn validation_accepts_a_clean_manifest() {
        validate_learned_manifest(&manifest(1000, 600)).unwrap();
    }

    #[test]
    fn validation_gates_the_reduction() {
        let m = manifest(1000, 900); // only 10 % fewer map-ins
        let err = validate_learned_manifest(&m).unwrap_err();
        assert!(err.contains("below the"), "{err}");
    }

    #[test]
    fn validation_catches_parity_and_counter_problems() {
        let mut m = manifest(1000, 500);
        m.parity.mismatches = 3;
        let err = validate_learned_manifest(&m).unwrap_err();
        assert!(err.contains("diverged"), "{err}");

        let mut m = manifest(1000, 500);
        m.results.retain(|r| r.scheme != "MRSM");
        let err = validate_learned_manifest(&m).unwrap_err();
        assert!(err.contains("missing scheme"), "{err}");

        let mut m = manifest(1000, 500);
        m.results[3].predict_hits = 0;
        let err = validate_learned_manifest(&m).unwrap_err();
        assert!(err.contains("zero predict hits"), "{err}");

        let mut m = manifest(1000, 500);
        m.map_read_reduction = 0.9;
        let err = validate_learned_manifest(&m).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
    }

    /// A miniature end-to-end parity replay: no mismatches, no oracle
    /// violations, on a trace long enough to write and re-read.
    #[test]
    fn tiny_parity_replay_is_clean() {
        let trace = fig8_small_trace(0.001);
        let p = read_parity(&trace, 0.001);
        assert!(p.checked_reads > 0, "trace must contain reads");
        assert_eq!(p.mismatches, 0, "learned reads must match FTL");
        assert_eq!(p.oracle_violations, 0);
    }

    /// The committed manifest at the repo root must stay schema-valid and
    /// clear the map-read-reduction gate — deterministically, on the
    /// recorded numbers, so CI never depends on re-measuring.
    #[test]
    fn committed_manifest_clears_the_map_read_gate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_learned.json");
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read committed BENCH_learned.json: {e}"));
        let m: BenchLearnedManifest = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse committed BENCH_learned.json: {e}"));
        validate_learned_manifest(&m)
            .unwrap_or_else(|e| panic!("committed BENCH_learned.json: {e}"));
    }
}
