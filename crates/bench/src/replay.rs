//! The **fig8 small-config workload** and its simulation-result digest.
//!
//! One fixed workload underlies most of the repo's simulated evidence:
//! * the fig8 parity test replays it and asserts the *simulated* results
//!   (flash ops, counters, GC work, latency sums) are bit-identical to the
//!   golden digest captured before the hot-path optimizations — host-side
//!   speedups must never change device-visible behaviour,
//! * the host, fleet, gc and learned entries of [`crate::tracked`] build
//!   their devices from [`fig8_small_config`],
//! * `benchmark/` times it on the host clock (the one place host time is
//!   measured).
//!
//! Everything is seeded: same trace, same aging, same device → the same
//! simulated counters on every machine.

use aftl_core::scheme::{SchemeConfig, SchemeKind};
use aftl_sim::experiment::run_single_with;
use aftl_sim::report::RunReport;
use aftl_sim::SimConfig;
use aftl_trace::{LunPreset, Trace};
use serde::{Deserialize, Serialize};

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

/// Replay the fig8-small workload once on `scheme` and return the manifest.
pub fn run_fig8_small(scheme: SchemeKind, trace: &Trace) -> RunReport {
    run_fig8_small_with(scheme, trace, false)
}

/// [`run_fig8_small`] with the pipelined map engine toggled.
pub fn run_fig8_small_with(scheme: SchemeKind, trace: &Trace, pipelined: bool) -> RunReport {
    run_single_with(fig8_small_config_with(scheme, pipelined), trace)
        .expect("fig8-small replay succeeds")
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
