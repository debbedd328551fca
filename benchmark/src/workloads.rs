//! The five workloads: what each feeds the simulator and why it exists.
//!
//! Every scheme and every driver (replay, hosted, fleet) is large in
//! exactly one workload and absent from at least one other, so a change to
//! one layer has a workload that exercises it and one that bypasses it.
//! Inputs are generated in-process from `aftl_trace::VdiWorkload`; the
//! `--seed` is XOR-ed into the trace, aging and host seeds, so seed 0 is
//! the Table-2-calibrated preset itself.

use aftl_bench::replay::fig8_small_config;
use aftl_core::scheme::SchemeKind;
use aftl_host::{Arbitration, HostConfig, IssueModel};
use aftl_sim::fleet::FleetSpec;
use aftl_sim::SimConfig;
use aftl_trace::{LunPreset, Trace, VdiWorkload};

/// Which public driver a workload goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `experiment::run_on_device_keep` on a pre-aged `Ssd`: the simulated
    /// device sees an open loop timed by the trace.
    Replay,
    /// `fleet::run_fleet`: 2 range-sharded devices × 4 closed-loop tenants
    /// (8 outstanding each) behind the `aftl-host` engine, 2 threads.
    Fleet,
}

/// An extra arm a workload's traced run measures: the same replay with one
/// thing switched, for a cost spans around the layers cannot see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Map pipeline on (`core.mapping.pipelined_ratio`).
    Pipelined,
    /// Observer off (`sim.observe.cost_ratio`): catches the op-log cost
    /// inside the flash array.
    ObserverOff,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which layers it stresses (the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    /// Driver the timed repeats go through.
    pub driver: Driver,
    /// FTL scheme on the device.
    pub scheme: SchemeKind,
    /// Extra arm of the traced run, if any.
    pub arm: Option<Arm>,
    /// Whether the traced run also takes the isolated per-call costs.
    pub micro: bool,
    preset: LunPreset,
    /// Trace length relative to the preset's Table 2 request count.
    length: f64,
    /// Logical footprint override (default: the preset's 4 GiB lun).
    lun_bytes: Option<u64>,
    /// 512 MiB `fig8-small` geometry instead of the 16 GiB experiment one.
    small_device: bool,
    /// Mapping-cache override in bytes.
    cache_bytes: Option<u64>,
    /// Mean inter-arrival override in nanoseconds (default: the preset's
    /// 2.2 ms, which every device here but the GC-bound one keeps up with).
    mean_iat_ns: Option<u64>,
}

/// All workloads, in reporting order.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "lun1-across",
        why: "Paper's headline cell: full lun1 (750k req, 61% writes, 25% across-page) on the aged 16 GiB device, Across-FTL; scheme logic and flash-op issue dominate, GC light. Open loop timed by the trace.",
        driver: Driver::Replay,
        scheme: SchemeKind::Across,
        arm: Some(Arm::ObserverOff),
        micro: true,
        preset: LunPreset::Lun1,
        length: 1.0,
        lun_bytes: None,
        small_device: false,
        cache_bytes: None,
        mean_iat_ns: None,
    },
    Workload {
        name: "lun6-mrsm",
        why: "Map-heavy and read-heavy: full lun6 (633k req, 65% reads) on the 16 GiB device, MRSM with its table ~42% resident; mapping cache, MapEngine and MRSM tables dominate. Open loop timed by the trace.",
        driver: Driver::Replay,
        scheme: SchemeKind::Mrsm,
        arm: Some(Arm::Pipelined),
        micro: false,
        preset: LunPreset::Lun6,
        length: 1.0,
        lun_bytes: None,
        small_device: false,
        cache_bytes: None,
        mean_iat_ns: None,
    },
    Workload {
        name: "gcmix-across",
        why: "GC-bound with the paper's across-page mix: lun1 x2 (1.5M req) over 400 MiB on the 512 MiB device, Across-FTL; GC, allocator and VictimIndex dominate. Open loop at 10k req/s, saturating the device.",
        driver: Driver::Replay,
        scheme: SchemeKind::Across,
        arm: None,
        micro: false,
        preset: LunPreset::Lun1,
        length: 2.0,
        lun_bytes: Some(400 << 20),
        small_device: true,
        cache_bytes: None,
        // At 78 % full the simulated device absorbs ~0.3 k req/s. Slightly
        // overloaded, its backlog (and so every latency) swings 10x with the
        // seed; far overloaded, latency is the time to drain the batch and
        // moves with the seed no more than the GC work does.
        mean_iat_ns: Some(100_000),
    },
    Workload {
        name: "starved-learned",
        why: "Working set far above the program's own cache: lun6 x0.5 (317k req) over 64 MiB, 2-page mapping cache, Learned-FTL; MapCache miss/evict/flush and the segment store dominate. Open loop, trace-timed.",
        driver: Driver::Replay,
        scheme: SchemeKind::Learned,
        arm: None,
        micro: false,
        preset: LunPreset::Lun6,
        length: 0.5,
        lun_bytes: Some(64 << 20),
        small_device: true,
        cache_bytes: Some(2 * 8192),
        mean_iat_ns: None,
    },
    Workload {
        name: "fleet2-ftl",
        why: "Third driver: full lun1 on 2 range-sharded 16 GiB devices x 4 WRR tenants, closed loop of 2x4x8 outstanding, baseline FTL, 2 threads; host engine, per-shard re-aging and report merge at their largest.",
        driver: Driver::Fleet,
        scheme: SchemeKind::Baseline,
        arm: None,
        micro: false,
        preset: LunPreset::Lun1,
        length: 1.0,
        lun_bytes: None,
        small_device: false,
        cache_bytes: None,
        mean_iat_ns: None,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// Requests in the full-size trace.
    pub fn trace_len(&self) -> u64 {
        (self.preset.table2_targets().0 as f64 * self.length).round() as u64
    }

    /// Generate the workload's trace. `scale` multiplies the trace length
    /// (1.0 = the benchmark's full size; smoke runs and tests pass 0.01).
    /// Includes the preset's across-ratio calibration, which is part of
    /// what a user waits for.
    pub fn trace(&self, seed: u64, scale: f64) -> Trace {
        let mut spec = self.preset.spec(self.length * scale);
        if let Some(bytes) = self.lun_bytes {
            spec.lun_bytes = bytes;
        }
        if let Some(ns) = self.mean_iat_ns {
            spec.mean_iat_ns = ns;
        }
        spec.seed ^= seed;
        VdiWorkload::new(spec).generate()
    }

    /// The device configuration, with the real §4.1 aging targets.
    pub fn config(&self, seed: u64) -> SimConfig {
        let mut config = if self.small_device {
            fig8_small_config(self.scheme)
        } else {
            SimConfig::experiment(self.scheme, 8192)
        };
        if let Some(bytes) = self.cache_bytes {
            config.scheme_cfg.cache_bytes = bytes;
        }
        config.warmup.seed ^= seed;
        config
    }

    /// The verify pass's device: the 512 MiB geometry with this workload's
    /// scheme and cache override, tracking sector contents for the oracle.
    pub fn verify_config(&self, seed: u64) -> SimConfig {
        let mut config = fig8_small_config(self.scheme);
        if let Some(bytes) = self.cache_bytes {
            config.scheme_cfg.cache_bytes = bytes;
        }
        config.warmup.seed ^= seed;
        config.track_content = true;
        config
    }

    /// The fleet topology of a [`Driver::Fleet`] workload.
    pub fn fleet_spec(&self, seed: u64) -> FleetSpec {
        let mut spec = FleetSpec::new(2);
        spec.host = HostConfig {
            arbitration: Arbitration::WeightedRoundRobin,
            seed: spec.host.seed ^ seed,
            ..spec.host
        };
        spec.issue = IssueModel::Closed { outstanding: 8 };
        spec.queue_depth = 16;
        spec.tenants_per_device = 4;
        spec.weights = vec![4, 2, 1, 1];
        spec
    }
}
