//! Simulation configuration.

use aftl_core::scheme::{SchemeConfig, SchemeKind};
use aftl_flash::{FaultConfig, Geometry, GeometryBuilder, TimingSpec};
use serde::{Deserialize, Serialize};

use crate::observe::TraceConfig;

/// Observability sinks (see [`crate::observe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserveConfig {
    /// Per-[`crate::observe::OpKind`] latency histograms feeding the run
    /// manifest's percentile section. On by default; costs one op-log
    /// record per flash operation.
    pub histograms: bool,
    /// Structured event tracing (off by default; see
    /// [`crate::observe::TraceConfig`]).
    pub trace: TraceConfig,
}

impl ObserveConfig {
    /// Histograms on, tracing off — what experiment runs use.
    pub fn standard() -> Self {
        ObserveConfig {
            histograms: true,
            trace: TraceConfig::default(),
        }
    }

    /// Everything off: no op logging at all (throughput benchmarks).
    pub fn disabled() -> Self {
        ObserveConfig {
            histograms: false,
            trace: TraceConfig::default(),
        }
    }
}

/// Warm-up (aging) targets from §4.1: the simulated SSD is aged so 90 % of
/// its capacity has been used, with valid data occupying ~39.8 %.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmupConfig {
    /// Stop aging when this fraction of physical pages has been programmed.
    pub used_fraction: f64,
    /// Fraction of physical pages holding valid data after aging (sets the
    /// aging footprint).
    pub valid_fraction: f64,
    /// RNG seed for the aging workload (deterministic warm-up).
    pub seed: u64,
}

impl Default for WarmupConfig {
    fn default() -> Self {
        WarmupConfig {
            used_fraction: 0.88, // just under the 10 % GC trigger
            valid_fraction: 0.398,
            seed: 0xA6ED_55D0,
        }
    }
}

/// Sudden-power-off experiment knobs (see `crate::crash`). Disabled by
/// default: no OOB journaling, no op budget, bit-identical behaviour to a
/// build without the crash layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashConfig {
    /// Cut power after this many flash operations (`None` = never). Arming
    /// also turns on OOB journaling from the first write.
    pub crash_at: Option<u64>,
    /// After the cut fires, power-cycle the device, rebuild the mapping
    /// from the OOB journal and verify every acknowledged write.
    pub recover: bool,
    /// Snapshot the mapping every N host writes so recovery replays only
    /// the post-checkpoint delta instead of scanning every page
    /// (`None` = full OOB scan).
    pub checkpoint_every: Option<u64>,
}

impl CrashConfig {
    /// Whether this run injects a power cut.
    #[inline]
    pub fn armed(&self) -> bool {
        self.crash_at.is_some()
    }
}

/// Full configuration of one simulated device + scheme.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// NAND array dimensions and page size.
    pub geometry: Geometry,
    /// Flash operation latencies (Table 1).
    pub timing: TimingSpec,
    /// Which FTL scheme to run.
    pub scheme: SchemeKind,
    /// Scheme sizing: logical space, cache budget, GC threshold.
    pub scheme_cfg: SchemeConfig,
    /// Aging targets applied before the measured window.
    pub warmup: WarmupConfig,
    /// Enable the sector-stamp oracle (tests only; costs memory).
    pub track_content: bool,
    /// Observability sinks: latency histograms and event tracing.
    pub observe: ObserveConfig,
    /// Fault injection and endurance model. Disabled by default: no RNG
    /// draws, no endurance checks, bit-identical results to a build
    /// without the fault layer.
    pub fault: FaultConfig,
    /// Sudden-power-off injection and recovery. Disabled by default.
    pub crash: CrashConfig,
}

impl SimConfig {
    /// The reproduction configuration: Table 1 timing, a 16 GiB device with
    /// the paper's channel/chip hierarchy (the paper's 128 GiB device and
    /// its traces are scaled down together — the across-page effects are
    /// ratio-driven, not capacity-driven; see DESIGN.md).
    pub fn experiment(scheme: SchemeKind, page_bytes: u32) -> Self {
        let geometry = Self::experiment_geometry(page_bytes);
        SimConfig {
            geometry,
            // Table 1 specifies 8 KB timing; page-size sweeps scale the
            // channel-transfer component with the page (identity at 8 KB).
            timing: TimingSpec::paper_tlc().for_page_bytes(page_bytes),
            scheme,
            scheme_cfg: SchemeConfig::for_geometry(&geometry),
            warmup: WarmupConfig::default(),
            track_content: false,
            observe: ObserveConfig::standard(),
            fault: FaultConfig::disabled(),
            crash: CrashConfig::default(),
        }
    }

    /// 16 GiB at any page size: the block count adapts so capacity stays
    /// constant across the Figure 13/14 page-size sweep.
    pub fn experiment_geometry(page_bytes: u32) -> Geometry {
        let blocks_per_plane = match page_bytes {
            4096 => 1024,
            8192 => 512,
            16384 => 256,
            other => panic!("unsupported page size {other} (use 4096/8192/16384)"),
        };
        GeometryBuilder::new()
            .channels(8)
            .chips_per_channel(2)
            .dies_per_chip(2)
            .planes_per_die(2)
            .blocks_per_plane(blocks_per_plane)
            .pages_per_block(64)
            .page_bytes(page_bytes)
            .build()
            .expect("experiment geometry is valid")
    }

    /// A small configuration for tests: tiny geometry, unit timing, oracle
    /// tracking on, no aging by default.
    pub fn test_tiny(scheme: SchemeKind) -> Self {
        let geometry = Geometry::tiny();
        SimConfig {
            geometry,
            timing: TimingSpec::unit(),
            scheme,
            scheme_cfg: SchemeConfig {
                cache_bytes: 1 << 20,
                ..SchemeConfig::for_geometry(&geometry)
            },
            warmup: WarmupConfig {
                used_fraction: 0.0,
                valid_fraction: 0.0,
                seed: 1,
            },
            track_content: true,
            observe: ObserveConfig::standard(),
            fault: FaultConfig::disabled(),
            crash: CrashConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_capacity_constant_across_page_sizes() {
        let c4 = SimConfig::experiment_geometry(4096).capacity_bytes();
        let c8 = SimConfig::experiment_geometry(8192).capacity_bytes();
        let c16 = SimConfig::experiment_geometry(16384).capacity_bytes();
        assert_eq!(c4, c8);
        assert_eq!(c8, c16);
        assert_eq!(c8, 16 << 30);
    }

    #[test]
    #[should_panic]
    fn unsupported_page_size_panics() {
        SimConfig::experiment_geometry(2048);
    }

    #[test]
    fn experiment_uses_paper_timing_and_gc() {
        let c = SimConfig::experiment(SchemeKind::Across, 8192);
        assert_eq!(c.timing.program_ns, 2_000_000);
        assert!((c.scheme_cfg.gc_threshold - 0.10).abs() < 1e-12);
        assert!((c.warmup.used_fraction - 0.88).abs() < 1e-12);
    }
}
