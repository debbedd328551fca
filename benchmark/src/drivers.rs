//! The timed drivers: set a workload up, then push it through the repo's
//! public entry points exactly as a user would. No spans, no span buffer.

use aftl_bench::replay::ReplayDigest;
use aftl_flash::Result;
use aftl_sim::config::WarmupConfig;
use aftl_sim::experiment::run_on_device_keep;
use aftl_sim::fleet::run_fleet;
use aftl_sim::report::RunReport;
use aftl_sim::{warmup, ObserveConfig, SimConfig, Ssd, WarmupStats};
use aftl_trace::Trace;

use crate::workloads::{Arm, Driver, Workload};

/// A workload after set-up, ready for the measured call.
pub struct Prepared {
    /// The generated trace.
    pub trace: Trace,
    /// The device configuration (real aging targets).
    pub config: SimConfig,
    /// The aged device and what aging did. `None` for fleet workloads,
    /// where `run_fleet` builds and ages each shard's device itself.
    pub device: Option<(Ssd, WarmupStats)>,
}

/// Build a device from `config` and age it *before* the measured call.
///
/// `run_on_device_keep` ages whatever it is handed according to the
/// device's own config, so the device is built with aging switched off
/// and aged here, explicitly, under the real targets. The second aging
/// inside the driver is then a no-op.
pub fn aged_device(config: &SimConfig) -> Result<(Ssd, WarmupStats)> {
    let mut unaged = config.clone();
    unaged.warmup = WarmupConfig {
        used_fraction: 0.0,
        ..config.warmup
    };
    let mut ssd = Ssd::new(unaged)?;
    let stats = warmup::age(&mut ssd, &config.warmup)?;
    Ok((ssd, stats))
}

/// Everything `setup_s` covers: trace generation, and for replay
/// workloads device construction and aging.
pub fn prepare(w: &Workload, seed: u64, scale: f64) -> Result<Prepared> {
    prepare_arm(w, seed, scale, None)
}

/// [`prepare`], with one of the traced run's extra arms switched.
pub fn prepare_arm(w: &Workload, seed: u64, scale: f64, arm: Option<Arm>) -> Result<Prepared> {
    let trace = w.trace(seed, scale);
    let mut config = w.config(seed);
    match arm {
        Some(Arm::Pipelined) => config.scheme_cfg.pipeline.enabled = true,
        Some(Arm::ObserverOff) => config.observe = ObserveConfig::disabled(),
        None => {}
    }
    let device = match w.driver {
        Driver::Replay => Some(aged_device(&config)?),
        Driver::Fleet => None,
    };
    Ok(Prepared {
        trace,
        config,
        device,
    })
}

/// Replay `trace` on a pre-aged device through the public replay driver
/// (report assembly included). The report is patched to describe the
/// aging that really happened, so it equals what `run_single_with` on
/// `config` would have produced.
pub fn replay_aged(
    ssd: Ssd,
    aged: WarmupStats,
    config: &SimConfig,
    trace: &Trace,
) -> Result<RunReport> {
    let (mut report, _ssd) = run_on_device_keep(ssd, trace)?;
    report.warmup = aged;
    report.config.warmup = config.warmup;
    Ok(report)
}

/// The measured call of a workload: `replay_kreq_per_s` is the trace
/// length over this function's wall time.
pub fn run(w: &Workload, seed: u64, p: Prepared) -> Result<RunReport> {
    match p.device {
        Some((ssd, aged)) => replay_aged(ssd, aged, &p.config, &p.trace),
        None => run_fleet(p.config, &p.trace, &w.fleet_spec(seed)),
    }
}

/// Hash of everything the simulation computed (the `ReplayDigest` fields:
/// flash ops by kind, erases, GC work, chip-busy ns, latency sums, cache
/// counters, DRAM accesses, span, warm-up writes). A change meant only to
/// speed the simulator up must leave it identical on every workload.
pub fn sim_digest(report: &RunReport) -> String {
    let json = serde_json::to_string(&ReplayDigest::of(report)).expect("digests serialize");
    // FNV-1a, 64 bit: stable across runs and toolchains, unlike `DefaultHasher`.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}
