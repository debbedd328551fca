//! The tracked replay-throughput benchmark: the **fig8 small-config
//! workload**, its simulation-result digest (used by the parity test), and
//! the `BENCH_replay.json` manifest that records the repo's performance
//! trajectory across PRs.
//!
//! One fixed workload serves three purposes:
//! * `benches/sim_throughput.rs` times it and emits `BENCH_replay.json`
//!   (requests/sec and ns/request per scheme, plus the recorded baseline
//!   the current numbers are compared against),
//! * the fig8 parity test replays it and asserts the *simulated* results
//!   (flash ops, counters, GC work, latency sums) are bit-identical to the
//!   golden digest captured before the hot-path optimizations — host-side
//!   speedups must never change device-visible behaviour,
//! * ci.sh runs a scaled-down instance as a bench smoke test.
//!
//! Everything is seeded: same trace, same aging, same device → the same
//! simulated counters on every machine, while wall-clock numbers track the
//! host the bench ran on.

use aftl_core::scheme::{SchemeConfig, SchemeKind};
use aftl_sim::experiment::run_single_with;
use aftl_sim::report::RunReport;
use aftl_sim::SimConfig;
use aftl_trace::{LunPreset, Trace};
use serde::{Deserialize, Serialize};

/// Schema version of `BENCH_replay.json`. Bump on any field change.
///
/// v2: each scheme's row became a serial/pipelined pair with the measured
/// pipeline speedup; the `baseline` section carries the PR-7-era serial
/// medians forward as the trajectory anchor.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Trace-length scale of the full fig8-small workload (~7.5 k requests).
pub const FIG8_SMALL_SCALE: f64 = 0.01;

/// The fig8 small-config trace: the lun1 VDI workload (the across-heaviest
/// preset fig8 replays) scaled down, over a 64 MiB logical footprint so the
/// aged 512 MiB device sees real GC pressure during the measured window.
pub fn fig8_small_trace(scale: f64) -> Trace {
    let mut spec = LunPreset::Lun1.spec(scale);
    spec.lun_bytes = 64 << 20;
    aftl_trace::VdiWorkload::new(spec).generate()
}

/// The fig8 small-config device for `scheme`: the experiment stack (paper
/// TLC timing, §4.1 aging at 88 % used / 39.8 % valid, 10 % GC trigger)
/// shrunk to 512 MiB so a full aged replay takes seconds, not minutes.
pub fn fig8_small_config(scheme: SchemeKind) -> SimConfig {
    fig8_small_config_with(scheme, false)
}

/// [`fig8_small_config`] with the pipelined map engine toggled: same
/// device, same aging, only `scheme_cfg.pipeline.enabled` differs.
pub fn fig8_small_config_with(scheme: SchemeKind, pipelined: bool) -> SimConfig {
    let geometry = aftl_flash::GeometryBuilder::new()
        .channels(4)
        .chips_per_channel(2)
        .dies_per_chip(1)
        .planes_per_die(2)
        .blocks_per_plane(64)
        .pages_per_block(64)
        .page_bytes(8192)
        .build()
        .expect("fig8-small geometry is valid");
    let mut config = SimConfig::experiment(scheme, 8192);
    config.geometry = geometry;
    config.scheme_cfg = SchemeConfig::for_geometry(&geometry);
    config.scheme_cfg.pipeline.enabled = pipelined;
    config
}

/// Digest of everything the simulation *computed* (as opposed to how fast
/// the host computed it). Two runs of the same workload must produce equal
/// digests regardless of host-side data-structure changes — this is what
/// the fig8 parity test locks down.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayDigest {
    /// Scheme name (`FTL` / `MRSM` / `Across-FTL`).
    pub scheme: String,
    /// Host requests replayed in the measured window.
    pub requests: u64,
    /// Flash reads over the measured window, by page kind.
    pub reads: Vec<u64>,
    /// Flash programs over the measured window, by page kind.
    pub programs: Vec<u64>,
    /// Block erases.
    pub erases: u64,
    /// GC-migrated pages (flash-stat view).
    pub gc_migrations: u64,
    /// GC report: blocks erased by GC episodes.
    pub gc_erased_blocks: u64,
    /// GC report: pages migrated by GC episodes.
    pub gc_migrated_pages: u64,
    /// Chip-busy nanoseconds (timing-model fingerprint).
    pub chip_busy_ns: u128,
    /// Sum of host request latencies (reads + writes), nanoseconds.
    pub latency_sum_ns: u128,
    /// Scheme DRAM accesses.
    pub dram_accesses: u64,
    /// Read-modify-write reads.
    pub rmw_reads: u64,
    /// Mapping-cache lookups / hits / misses / loads / flushes.
    pub cache: Vec<u64>,
    /// Simulated span (last completion − first arrival).
    pub sim_span_ns: u128,
    /// Warm-up writes issued while aging the device.
    pub warmup_writes: u64,
}

impl ReplayDigest {
    /// Extract the digest from a run manifest.
    pub fn of(report: &RunReport) -> Self {
        ReplayDigest {
            scheme: report.scheme.name().to_string(),
            requests: report.requests,
            reads: vec![
                report.flash.reads.data,
                report.flash.reads.across,
                report.flash.reads.map,
            ],
            programs: vec![
                report.flash.programs.data,
                report.flash.programs.across,
                report.flash.programs.map,
            ],
            erases: report.flash.erases,
            gc_migrations: report.flash.gc_migrations,
            gc_erased_blocks: report.gc.erased_blocks,
            gc_migrated_pages: report.gc.migrated_pages,
            chip_busy_ns: u128::from(report.flash.chip_busy_ns),
            latency_sum_ns: report.classes.reads_total().latency_sum_ns
                + report.classes.writes_total().latency_sum_ns,
            dram_accesses: report.counters.dram_accesses,
            rmw_reads: report.counters.rmw_reads,
            cache: vec![
                report.cache.lookups,
                report.cache.hits,
                report.cache.misses,
                report.cache.loads,
                report.cache.flushes,
            ],
            sim_span_ns: report.sim_span_ns,
            warmup_writes: report.warmup.writes,
        }
    }

    /// The digest minus the two fields that legitimately depend on *when*
    /// operations were issued: end-to-end latency sums and the simulated
    /// span. The pipelined map engine (and host-side pacing) may move
    /// those; every other field — flash ops, GC work, chip-busy time, the
    /// full cache counter set, DRAM accesses — must stay bit-identical.
    pub fn flash_side(&self) -> ReplayDigest {
        let mut d = self.clone();
        d.latency_sum_ns = 0;
        d.sim_span_ns = 0;
        d
    }
}

/// Timing of one scheme's replay of the fig8-small workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemeTiming {
    /// Scheme name.
    pub scheme: String,
    /// Trace requests replayed per sample.
    pub requests: u64,
    /// Warm-up writes issued per sample (aging is part of the timed run).
    pub warmup_writes: u64,
    /// Median wall nanoseconds per trace request. The timed region is the
    /// replayed workload — device aging plus the trace loop
    /// (`RunReport::wall_seconds`) — not device construction or report
    /// assembly.
    pub ns_per_req: u64,
    /// Median trace requests per wall second (same timed region).
    pub req_per_sec: f64,
    /// Number of timed samples the median was taken over.
    pub samples: u32,
}

/// One scheme's serial/pipelined timing pair (schema v2 `results` row).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineComparison {
    /// Scheme name.
    pub scheme: String,
    /// Timing with the pipelined map engine off (the legacy path).
    pub serial: SchemeTiming,
    /// Timing with the pipelined map engine on.
    pub pipelined: SchemeTiming,
    /// `pipelined.req_per_sec / serial.req_per_sec`, recorded so the gate
    /// and the human-readable file agree on one number.
    pub speedup: f64,
}

impl PipelineComparison {
    /// Pair two timings of the same scheme, computing the speedup.
    pub fn pair(serial: SchemeTiming, pipelined: SchemeTiming) -> Self {
        let speedup = if serial.req_per_sec > 0.0 {
            pipelined.req_per_sec / serial.req_per_sec
        } else {
            0.0
        };
        PipelineComparison {
            scheme: serial.scheme.clone(),
            serial,
            pipelined,
            speedup,
        }
    }
}

/// The `BENCH_replay.json` manifest: current serial/pipelined numbers plus
/// the recorded baseline they are compared against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReplayManifest {
    /// Manifest schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload identifier.
    pub workload: String,
    /// Trace-length scale the numbers were measured at.
    pub scale: f64,
    /// Current per-scheme serial/pipelined timing pairs.
    pub results: Vec<PipelineComparison>,
    /// Baseline (pre-pipeline, serial-only) timings, carried forward so the
    /// file records the perf trajectory. Label says which commit/state
    /// produced them.
    pub baseline_label: String,
    /// Baseline per-scheme timings.
    pub baseline: Vec<SchemeTiming>,
}

impl BenchReplayManifest {
    /// Speedup of the *serial* path over `baseline` for `scheme` (req/s
    /// ratio) — the cross-PR trajectory, pipeline excluded.
    pub fn speedup(&self, scheme: &str) -> Option<f64> {
        let cur = self.results.iter().find(|r| r.scheme == scheme)?;
        let base = self.baseline.iter().find(|r| r.scheme == scheme)?;
        if base.req_per_sec > 0.0 {
            Some(cur.serial.req_per_sec / base.req_per_sec)
        } else {
            None
        }
    }
}

/// Replay the fig8-small workload once on `scheme` and return the manifest
/// (used for digests and smoke runs; timing loops call this repeatedly).
pub fn run_fig8_small(scheme: SchemeKind, trace: &Trace) -> RunReport {
    run_fig8_small_with(scheme, trace, false)
}

/// [`run_fig8_small`] with the pipelined map engine toggled.
pub fn run_fig8_small_with(scheme: SchemeKind, trace: &Trace, pipelined: bool) -> RunReport {
    run_single_with(fig8_small_config_with(scheme, pipelined), trace)
        .expect("fig8-small replay succeeds")
}

/// Time `samples` serial replays of `trace` on `scheme` (median).
pub fn time_fig8_small(scheme: SchemeKind, trace: &Trace, samples: u32) -> SchemeTiming {
    time_fig8_small_with(scheme, trace, samples, false)
}

/// Time serial and pipelined replays of `trace` on `scheme` with
/// **interleaved** samples (serial, pipelined, serial, …), returning the
/// paired medians. Interleaving cancels slow load drift on the host: a
/// sequential all-A-then-all-B comparison folds whatever the machine was
/// doing during each half into the ratio, which on a busy box swamps the
/// effect being measured. Each sample is the run's `wall_seconds` — the
/// replayed workload (aging + trace loop) only, not device construction
/// or report assembly.
pub fn time_fig8_small_pair(scheme: SchemeKind, trace: &Trace, samples: u32) -> PipelineComparison {
    assert!(samples >= 1);
    let mut wall: [Vec<u128>; 2] = [Vec::new(), Vec::new()];
    let mut requests = 0;
    let mut warmup_writes = [0u64; 2];
    // One warm-up run per mode so allocator/page-cache state is steady.
    for (i, pipelined) in [(0usize, false), (1, true)] {
        let r = run_fig8_small_with(scheme, trace, pipelined);
        requests = r.requests;
        warmup_writes[i] = r.warmup.writes;
    }
    for _ in 0..samples {
        for (i, pipelined) in [(0usize, false), (1, true)] {
            let r = run_fig8_small_with(scheme, trace, pipelined);
            wall[i].push((r.wall_seconds * 1e9) as u128);
        }
    }
    let mut timing = |i: usize| {
        wall[i].sort_unstable();
        let med = wall[i][wall[i].len() / 2];
        SchemeTiming {
            scheme: scheme.name().to_string(),
            requests,
            warmup_writes: warmup_writes[i],
            ns_per_req: (med / u128::from(requests.max(1))) as u64,
            req_per_sec: requests as f64 / (med as f64 / 1e9),
            samples,
        }
    };
    PipelineComparison::pair(timing(0), timing(1))
}

/// Time `samples` replays of `trace` on `scheme` with the pipelined map
/// engine toggled, returning the median.
pub fn time_fig8_small_with(
    scheme: SchemeKind,
    trace: &Trace,
    samples: u32,
    pipelined: bool,
) -> SchemeTiming {
    assert!(samples >= 1);
    let mut wall_ns: Vec<u128> = Vec::with_capacity(samples as usize);
    let mut requests = 0;
    let mut warmup_writes = 0;
    // One warm-up run so allocator/page-cache state is steady.
    let warm = run_fig8_small_with(scheme, trace, pipelined);
    requests = requests.max(warm.requests);
    warmup_writes = warmup_writes.max(warm.warmup.writes);
    for _ in 0..samples {
        let report = run_fig8_small_with(scheme, trace, pipelined);
        wall_ns.push((report.wall_seconds * 1e9) as u128);
        requests = report.requests;
        warmup_writes = report.warmup.writes;
    }
    wall_ns.sort_unstable();
    let med = wall_ns[wall_ns.len() / 2];
    SchemeTiming {
        scheme: scheme.name().to_string(),
        requests,
        warmup_writes,
        ns_per_req: (med / u128::from(requests.max(1))) as u64,
        req_per_sec: requests as f64 / (med as f64 / 1e9),
        samples,
    }
}

/// Structural validation of a parsed `BENCH_replay.json` (CI gate): the
/// schema version matches, every scheme appears in every section with sane
/// numbers, and each recorded speedup agrees with its own timing pair. The
/// speedup itself has no floor: the engine mode decides simulated issue
/// times, not host work, so the ratio is recorded, not gated.
pub fn validate_manifest(m: &BenchReplayManifest) -> std::result::Result<(), String> {
    fn check_row(section: &str, scheme: &str, row: &SchemeTiming) -> Result<(), String> {
        if row.requests == 0 || row.ns_per_req == 0 || row.req_per_sec <= 0.0 {
            return Err(format!("{section}/{scheme}: degenerate timing row {row:?}"));
        }
        Ok(())
    }
    if m.schema_version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != expected {BENCH_SCHEMA_VERSION}",
            m.schema_version
        ));
    }
    if m.workload.is_empty() {
        return Err("empty workload name".into());
    }
    for scheme in SchemeKind::ALL {
        let pair = m
            .results
            .iter()
            .find(|r| r.scheme == scheme.name())
            .ok_or_else(|| format!("results is missing scheme {}", scheme.name()))?;
        check_row("results/serial", scheme.name(), &pair.serial)?;
        check_row("results/pipelined", scheme.name(), &pair.pipelined)?;
        let recomputed = pair.pipelined.req_per_sec / pair.serial.req_per_sec;
        if (pair.speedup - recomputed).abs() > 1e-6 * recomputed.max(1.0) {
            return Err(format!(
                "results/{}: recorded speedup {:.4} disagrees with its rows ({recomputed:.4})",
                scheme.name(),
                pair.speedup
            ));
        }
        m.baseline
            .iter()
            .find(|r| r.scheme == scheme.name())
            .ok_or_else(|| format!("baseline is missing scheme {}", scheme.name()))
            .and_then(|row| check_row("baseline", scheme.name(), row))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_across_runs() {
        let trace = fig8_small_trace(0.001);
        for scheme in [SchemeKind::Baseline, SchemeKind::Across] {
            let a = ReplayDigest::of(&run_fig8_small(scheme, &trace));
            let b = ReplayDigest::of(&run_fig8_small(scheme, &trace));
            assert_eq!(a, b, "{}: same seed ⇒ same digest", scheme.name());
        }
    }

    fn timing(scheme: &str, rps: f64) -> SchemeTiming {
        SchemeTiming {
            scheme: scheme.into(),
            requests: 100,
            warmup_writes: 50,
            ns_per_req: (1e9 / rps) as u64,
            req_per_sec: rps,
            samples: 3,
        }
    }

    fn rows(serial_rps: f64, pipelined_rps: f64) -> Vec<PipelineComparison> {
        SchemeKind::ALL
            .iter()
            .map(|s| {
                PipelineComparison::pair(
                    timing(s.name(), serial_rps),
                    timing(s.name(), pipelined_rps),
                )
            })
            .collect()
    }

    fn baseline_rows(rps: f64) -> Vec<SchemeTiming> {
        SchemeKind::ALL
            .iter()
            .map(|s| timing(s.name(), rps))
            .collect()
    }

    #[test]
    fn manifest_validation_catches_missing_scheme() {
        let m = BenchReplayManifest {
            schema_version: BENCH_SCHEMA_VERSION,
            workload: "fig8-small".into(),
            scale: 0.01,
            results: rows(2000.0, 3000.0).drain(..1).collect(),
            baseline: baseline_rows(2000.0),
            baseline_label: "seed".into(),
        };
        let err = validate_manifest(&m).unwrap_err();
        assert!(err.contains("missing scheme"), "{err}");
    }

    #[test]
    fn manifest_validation_gates_mrsm_pipeline_speedup() {
        let mut m = BenchReplayManifest {
            schema_version: BENCH_SCHEMA_VERSION,
            workload: "fig8-small".into(),
            scale: 0.01,
            results: rows(2000.0, 3000.0),
            baseline: baseline_rows(2000.0),
            baseline_label: "seed".into(),
        };
        validate_manifest(&m).unwrap();

        // A pipelined row slower than its serial one is a reading, not a
        // failure: the ratio is recorded and must only agree with its rows.
        let mrsm = m
            .results
            .iter_mut()
            .find(|r| r.scheme == SchemeKind::Mrsm.name())
            .unwrap();
        *mrsm =
            PipelineComparison::pair(timing(&mrsm.scheme, 2000.0), timing(&mrsm.scheme, 1900.0));
        validate_manifest(&m).unwrap();

        // A speedup field that disagrees with its own rows is caught.
        let mrsm = m
            .results
            .iter_mut()
            .find(|r| r.scheme == SchemeKind::Mrsm.name())
            .unwrap();
        mrsm.speedup = 9.0;
        let err = validate_manifest(&m).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
    }

    /// The committed manifest at the repo root must stay schema-valid, with
    /// every recorded speedup agreeing with its rows.
    #[test]
    fn committed_manifest_clears_the_pipeline_gate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replay.json");
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read committed BENCH_replay.json: {e}"));
        let m: BenchReplayManifest = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse committed BENCH_replay.json: {e}"));
        validate_manifest(&m).unwrap_or_else(|e| panic!("committed BENCH_replay.json: {e}"));
    }

    #[test]
    fn manifest_round_trips_and_computes_speedup() {
        let m = BenchReplayManifest {
            schema_version: BENCH_SCHEMA_VERSION,
            workload: "fig8-small".into(),
            scale: 0.01,
            results: rows(3000.0, 4500.0),
            baseline: baseline_rows(2000.0),
            baseline_label: "pre-pipeline".into(),
        };
        validate_manifest(&m).unwrap();
        let json = serde_json::to_string_pretty(&m).unwrap();
        let back: BenchReplayManifest = serde_json::from_str(&json).unwrap();
        validate_manifest(&back).unwrap();
        let s = back.speedup("FTL").unwrap();
        assert!((s - 1.5).abs() < 1e-9, "serial speedup vs baseline {s}");
        let p = back
            .results
            .iter()
            .find(|r| r.scheme == "MRSM")
            .unwrap()
            .speedup;
        assert!((p - 1.5).abs() < 1e-9, "pipeline speedup {p}");
    }

    #[test]
    fn pipelined_digest_flash_side_matches_serial() {
        let trace = fig8_small_trace(0.001);
        for scheme in SchemeKind::ALL {
            let serial = ReplayDigest::of(&run_fig8_small_with(scheme, &trace, false));
            let piped = ReplayDigest::of(&run_fig8_small_with(scheme, &trace, true));
            assert_eq!(
                serial.flash_side(),
                piped.flash_side(),
                "{}: pipelined replay changed flash-side behaviour",
                scheme.name()
            );
        }
    }
}
