//! A general-purpose simulation CLI for downstream users:
//!
//! ```sh
//! sim_cli --scheme across --preset lun1 --scale 0.2 --page 8192 --json out.json
//! sim_cli --scheme mrsm --trace /path/to/systor.csv
//! sim_cli --scheme ftl --trace msr.csv --format msr --lun 1
//! sim_cli --scheme across --queues 4 --queue-depth 16 --arbitration wrr \
//!         --tenant-weights 4,2,1,1                 # multi-tenant hosted run
//! sim_cli --scheme across --queues 2 --arrival-rate 50000   # open-loop Poisson
//! sim_cli --scheme across --devices 8                       # 8-device fleet run
//! ```
//!
//! Every run writes its full JSON [`aftl_sim::RunReport`] manifest —
//! to the `--json` path when given, else to `results/sim_cli_<trace>_<scheme>.json`
//! (override the directory with `AFTL_RESULTS_DIR`). Pass `--trace-events N`
//! to also capture an event trace and write it as JSONL next to the manifest.
//!
//! `--queues N` switches from plain replay to a *hosted* run: the trace is
//! sharded round-robin across N tenants, each with its own bounded
//! submission queue, and the manifest gains the per-tenant QoS section
//! (schema v4). Without `--queues`, `--speedup F` rescales the trace's
//! inter-arrival gaps before replay.
//!
//! `--devices N` switches to a *fleet* run: the workload's sector space is
//! range-sharded across N independent simulated devices driven in
//! parallel, and the merged manifest gains the fleet topology section
//! (schema v5). `--queues` then sets tenants *per device*; a 1-device
//! fleet is bit-identical to the equivalent hosted run.

use aftl_core::scheme::SchemeKind;
use aftl_core::{GcPolicy, GcTuning};
use aftl_flash::{FaultConfig, FlashError};
use aftl_host::{Arbitration, ArrivalModel, HostConfig, IssueModel};
use aftl_sim::experiment::run_on_device_keep;
use aftl_sim::fleet::{run_fleet, FleetSpec};
use aftl_sim::hosted::{run_hosted, tenants_from_trace};
use aftl_sim::{RunReport, SimConfig, Ssd};
use aftl_trace::parser::{parse_msr, parse_systor};
use aftl_trace::{ArrivalClock, LunPreset, Trace};
use std::io::BufReader;

/// Everything that can go wrong in a run, reported as one clean line on
/// stderr with exit code 1 (no panic, no backtrace).
#[derive(Debug)]
enum CliError {
    /// The trace file could not be opened.
    TraceOpen { path: String, err: std::io::Error },
    /// The trace file opened but did not parse.
    TraceParse { path: String, err: String },
    /// Building the simulated device failed (bad geometry/config).
    Device(FlashError),
    /// The simulation itself failed.
    Sim(FlashError),
    /// An output file (JSON manifest / JSONL trace) could not be written.
    WriteOut { path: String, err: std::io::Error },
    /// A flag `sim_cli` does not know (printed before the usage block,
    /// exit code 2).
    UnknownFlag(String),
    /// A flag parsed but its value is outside the meaningful range.
    Invalid {
        flag: &'static str,
        got: String,
        why: &'static str,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::TraceOpen { path, err } => write!(f, "cannot open trace {path}: {err}"),
            CliError::TraceParse { path, err } => write!(f, "cannot parse trace {path}: {err}"),
            CliError::Device(e) => write!(f, "cannot build device: {e}"),
            CliError::Sim(e) => write!(f, "simulation failed: {e}"),
            CliError::WriteOut { path, err } => write!(f, "cannot write {path}: {err}"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::Invalid { flag, got, why } => {
                write!(f, "invalid {flag} {got}: {why}")
            }
        }
    }
}

struct Cli {
    scheme: SchemeKind,
    page: u32,
    scale: f64,
    preset: Option<LunPreset>,
    trace_path: Option<String>,
    msr: bool,
    lun: Option<u32>,
    json: Option<String>,
    trace_events: Option<usize>,
    fault: FaultConfig,
    queues: Option<usize>,
    queue_depth: usize,
    arbitration: Arbitration,
    tenant_weights: Option<Vec<u32>>,
    arrival_rate: Option<f64>,
    outstanding: u32,
    speedup: Option<f64>,
    device_inflight: usize,
    host_seed: u64,
    devices: Option<usize>,
    burst: Option<(u32, u64, u64)>,
    gc_threshold: Option<f64>,
    gc_hysteresis: Option<f64>,
    gc: GcTuning,
    pipeline: bool,
    map_batch: Option<u32>,
    learned_max_error: Option<u32>,
    learned_retrain: Option<u32>,
    cache_bytes: Option<u64>,
    crash_at: Option<u64>,
    recover: bool,
    checkpoint_every: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sim_cli --scheme <ftl|mrsm|across|learned> [--preset lun1..lun6 | --trace FILE [--format msr] [--lun N]]\n               [--page 4096|8192|16384] [--scale F] [--json OUT.json] [--trace-events N]\n               [--queues N] [--queue-depth D] [--arbitration rr|wrr] [--tenant-weights W1,W2,…]\n               [--arrival-rate IOPS] [--outstanding K] [--speedup F] [--burst N,PERIOD_NS,SPACING_NS]\n               [--devices N] [--device-inflight N] [--host-seed N]\n               [--gc-policy greedy|cost-benefit|windowed] [--gc-preempt-pages N] [--gc-window N]\n               [--gc-threshold F] [--gc-hysteresis F] [--gc-urgent-ratio F] [--gc-idle-headroom F]\n               [--gc-throttle-fraction F] [--gc-throttle-delay-ns N]\n               [--pipeline] [--map-batch N]\n               [--learned-max-error N] [--learned-retrain N] [--cache-bytes N]\n               [--crash-at N] [--recover] [--checkpoint-every N]\n               [--fault-seed N] [--read-fail-rate P] [--program-fail-rate P] [--erase-fail-rate P]\n               [--erase-endurance N] [--read-retries N] [--min-spare-blocks N]"
    );
    std::process::exit(2);
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
    let mut cli = Cli {
        scheme: SchemeKind::Across,
        page: 8192,
        scale: 0.2,
        preset: Some(LunPreset::Lun1),
        trace_path: None,
        msr: false,
        lun: None,
        json: None,
        trace_events: None,
        fault: FaultConfig::disabled(),
        queues: None,
        queue_depth: 16,
        arbitration: Arbitration::RoundRobin,
        tenant_weights: None,
        arrival_rate: None,
        outstanding: 8,
        speedup: None,
        device_inflight: 16,
        host_seed: 42,
        devices: None,
        burst: None,
        gc_threshold: None,
        gc_hysteresis: None,
        gc: GcTuning::default(),
        pipeline: false,
        map_batch: None,
        learned_max_error: None,
        learned_retrain: None,
        cache_bytes: None,
        crash_at: None,
        recover: false,
        checkpoint_every: None,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scheme" => {
                let v = it.next().unwrap_or_else(|| usage());
                cli.scheme = match v.as_str() {
                    "ftl" => SchemeKind::Baseline,
                    "mrsm" => SchemeKind::Mrsm,
                    "across" => SchemeKind::Across,
                    "learned" => SchemeKind::Learned,
                    _ => {
                        return Err(CliError::Invalid {
                            flag: "--scheme",
                            got: v,
                            why: "unknown scheme; expected one of ftl, mrsm, across, learned",
                        })
                    }
                }
            }
            "--page" => {
                cli.page = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--scale" => {
                cli.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--preset" => {
                cli.preset = Some(match it.next().as_deref() {
                    Some("lun1") => LunPreset::Lun1,
                    Some("lun2") => LunPreset::Lun2,
                    Some("lun3") => LunPreset::Lun3,
                    Some("lun4") => LunPreset::Lun4,
                    Some("lun5") => LunPreset::Lun5,
                    Some("lun6") => LunPreset::Lun6,
                    _ => usage(),
                });
                cli.trace_path = None;
            }
            "--trace" => {
                cli.trace_path = it.next();
                cli.preset = None;
            }
            "--format" => cli.msr = matches!(it.next().as_deref(), Some("msr")),
            "--lun" => cli.lun = it.next().and_then(|v| v.parse().ok()),
            "--json" => cli.json = it.next(),
            "--trace-events" => {
                cli.trace_events = it.next().and_then(|v| v.parse().ok());
                if cli.trace_events.is_none() {
                    usage()
                }
            }
            "--fault-seed" => {
                cli.fault.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--read-fail-rate" => {
                cli.fault.read_fail_rate = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--program-fail-rate" => {
                cli.fault.program_fail_rate = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--erase-fail-rate" => {
                cli.fault.erase_fail_rate = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--erase-endurance" => {
                cli.fault.erase_endurance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--read-retries" => {
                cli.fault.read_retries = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--queues" => {
                cli.queues = it.next().and_then(|v| v.parse().ok());
                if cli.queues.is_none_or(|n| n == 0) {
                    usage()
                }
            }
            "--queue-depth" => {
                cli.queue_depth = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--arbitration" => {
                cli.arbitration = it
                    .next()
                    .as_deref()
                    .and_then(Arbitration::parse)
                    .unwrap_or_else(|| usage())
            }
            "--tenant-weights" => {
                let parsed: Option<Vec<u32>> = it
                    .next()
                    .map(|v| {
                        v.split(',')
                            .map(|w| w.trim().parse())
                            .collect::<Result<_, _>>()
                    })
                    .and_then(|r| r.ok());
                cli.tenant_weights = parsed;
                if cli.tenant_weights.as_ref().is_none_or(|w| w.is_empty()) {
                    usage()
                }
                // Weights only make sense under WRR.
                cli.arbitration = Arbitration::WeightedRoundRobin;
            }
            "--arrival-rate" => {
                cli.arrival_rate = it.next().and_then(|v| v.parse().ok());
                if cli.arrival_rate.is_none_or(|r| r <= 0.0) {
                    usage()
                }
            }
            "--outstanding" => {
                cli.outstanding = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--speedup" => {
                cli.speedup = it.next().and_then(|v| v.parse().ok());
                if cli.speedup.is_none_or(|s| s <= 0.0 || !s.is_finite()) {
                    usage()
                }
            }
            "--devices" => {
                cli.devices = it.next().and_then(|v| v.parse().ok());
                if cli.devices.is_none_or(|n| n == 0) {
                    usage()
                }
            }
            "--device-inflight" => {
                cli.device_inflight = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--host-seed" => {
                cli.host_seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--burst" => {
                let parsed = it.next().and_then(|v| {
                    let parts: Vec<&str> = v.split(',').map(str::trim).collect();
                    match parts.as_slice() {
                        [b, p, s] => Some((b.parse().ok()?, p.parse().ok()?, s.parse().ok()?)),
                        _ => None,
                    }
                });
                cli.burst = parsed;
                if cli.burst.is_none() {
                    usage()
                }
            }
            "--gc-policy" => {
                cli.gc.policy = it
                    .next()
                    .as_deref()
                    .and_then(GcPolicy::parse)
                    .unwrap_or_else(|| usage())
            }
            "--gc-preempt-pages" => {
                cli.gc.preempt_pages = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--gc-window" => {
                cli.gc.window = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--gc-threshold" => {
                cli.gc_threshold = it.next().and_then(|v| v.parse().ok());
                if cli.gc_threshold.is_none() {
                    usage()
                }
            }
            "--gc-hysteresis" => {
                cli.gc_hysteresis = it.next().and_then(|v| v.parse().ok());
                if cli.gc_hysteresis.is_none() {
                    usage()
                }
            }
            "--gc-urgent-ratio" => {
                cli.gc.urgent_ratio = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--gc-idle-headroom" => {
                cli.gc.idle_headroom = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--gc-throttle-fraction" => {
                cli.gc.throttle_fraction = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--gc-throttle-delay-ns" => {
                cli.gc.throttle_delay_ns = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--min-spare-blocks" => {
                cli.fault.min_spare_blocks = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--pipeline" => cli.pipeline = true,
            "--map-batch" => {
                cli.map_batch = it.next().and_then(|v| v.parse().ok());
                if cli.map_batch.is_none_or(|n| n == 0) {
                    usage()
                }
            }
            "--learned-max-error" => {
                cli.learned_max_error = it.next().and_then(|v| v.parse().ok());
                if cli.learned_max_error.is_none() {
                    usage()
                }
            }
            "--learned-retrain" => {
                cli.learned_retrain = it.next().and_then(|v| v.parse().ok());
                if cli.learned_retrain.is_none() {
                    usage()
                }
            }
            "--cache-bytes" => {
                cli.cache_bytes = it.next().and_then(|v| v.parse().ok());
                if cli.cache_bytes.is_none() {
                    usage()
                }
            }
            "--crash-at" => {
                cli.crash_at = it.next().and_then(|v| v.parse().ok());
                if cli.crash_at.is_none() {
                    usage()
                }
            }
            "--recover" => cli.recover = true,
            "--checkpoint-every" => {
                cli.checkpoint_every = it.next().and_then(|v| v.parse().ok());
                if cli.checkpoint_every.is_none() {
                    usage()
                }
            }
            "--help" | "-h" => usage(),
            _ => return Err(CliError::UnknownFlag(a)),
        }
    }
    Ok(cli)
}

/// Range checks on values that *parse* but make no physical sense —
/// rejected with one typed line instead of silently running a nonsense
/// config (a threshold of 1.2 would GC forever; a zero queue depth can
/// never admit a request).
fn validate(cli: &Cli) -> Result<(), CliError> {
    fn invalid<T: std::fmt::Display>(flag: &'static str, got: T, why: &'static str) -> CliError {
        CliError::Invalid {
            flag,
            got: got.to_string(),
            why,
        }
    }
    if !aftl_bench::PAGE_SIZES.contains(&cli.page) {
        return Err(invalid(
            "--page",
            cli.page,
            "the experiment geometry is defined for 4096, 8192 and 16384",
        ));
    }
    if !(cli.scale.is_finite() && cli.scale > 0.0) {
        return Err(invalid("--scale", cli.scale, "must be a finite number > 0"));
    }
    if cli.outstanding == 0 {
        return Err(invalid(
            "--outstanding",
            cli.outstanding,
            "a closed loop needs at least 1 request in flight",
        ));
    }
    if let Some(t) = cli.gc_threshold {
        if !(t > 0.0 && t < 1.0) {
            return Err(invalid(
                "--gc-threshold",
                t,
                "must be strictly between 0 and 1",
            ));
        }
    }
    if let Some(h) = cli.gc_hysteresis {
        if !(0.0..1.0).contains(&h) {
            return Err(invalid("--gc-hysteresis", h, "must be in [0, 1)"));
        }
    }
    if !(0.0..=1.0).contains(&cli.gc.urgent_ratio) {
        return Err(invalid(
            "--gc-urgent-ratio",
            cli.gc.urgent_ratio,
            "must be in [0, 1]",
        ));
    }
    if !(0.0..1.0).contains(&cli.gc.idle_headroom) {
        return Err(invalid(
            "--gc-idle-headroom",
            cli.gc.idle_headroom,
            "must be in [0, 1)",
        ));
    }
    if !(0.0..1.0).contains(&cli.gc.throttle_fraction) {
        return Err(invalid(
            "--gc-throttle-fraction",
            cli.gc.throttle_fraction,
            "must be in [0, 1)",
        ));
    }
    if cli.gc.window == 0 {
        return Err(invalid("--gc-window", cli.gc.window, "must be at least 1"));
    }
    if cli.queue_depth == 0 {
        return Err(invalid(
            "--queue-depth",
            cli.queue_depth,
            "must be at least 1",
        ));
    }
    if let Some((burst, period_ns, _)) = cli.burst {
        if burst == 0 {
            return Err(invalid("--burst", burst, "burst size must be at least 1"));
        }
        if period_ns == 0 {
            return Err(invalid("--burst", period_ns, "period must be nonzero"));
        }
    }
    for (flag, rate) in [
        ("--read-fail-rate", cli.fault.read_fail_rate),
        ("--program-fail-rate", cli.fault.program_fail_rate),
        ("--erase-fail-rate", cli.fault.erase_fail_rate),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            return Err(invalid(flag, rate, "probability must be in [0, 1]"));
        }
    }
    if let Some(e) = cli.learned_max_error {
        if e > 64 {
            return Err(invalid(
                "--learned-max-error",
                e,
                "prediction window half-width must be at most 64 pages",
            ));
        }
    }
    if let Some(r) = cli.learned_retrain {
        if r == 0 {
            return Err(invalid(
                "--learned-retrain",
                r,
                "retrain threshold must be at least 1",
            ));
        }
    }
    if let Some(b) = cli.cache_bytes {
        if b < u64::from(cli.page) {
            return Err(invalid(
                "--cache-bytes",
                b,
                "mapping cache must hold at least one translation page (>= --page bytes)",
            ));
        }
    }
    if let Some(n) = cli.crash_at {
        if n == 0 {
            return Err(invalid(
                "--crash-at",
                n,
                "the cut must allow at least one flash operation",
            ));
        }
        if cli.devices.is_some() {
            return Err(invalid(
                "--crash-at",
                n,
                "power-cut runs are single-device (incompatible with --devices)",
            ));
        }
        if cli.queues.is_some() {
            return Err(invalid(
                "--crash-at",
                n,
                "power-cut runs replay directly (incompatible with --queues)",
            ));
        }
    }
    if cli.recover && cli.crash_at.is_none() {
        return Err(invalid(
            "--recover",
            "(set)",
            "recovery needs a power cut to recover from (add --crash-at N)",
        ));
    }
    if let Some(k) = cli.checkpoint_every {
        if k == 0 {
            return Err(invalid(
                "--checkpoint-every",
                k,
                "checkpoint interval must be at least 1 write",
            ));
        }
        if cli.crash_at.is_none() {
            return Err(invalid(
                "--checkpoint-every",
                k,
                "checkpoints only matter for crash runs (add --crash-at N)",
            ));
        }
    }
    Ok(())
}

fn load_trace(cli: &Cli) -> Result<Trace, CliError> {
    if let Some(path) = &cli.trace_path {
        let file = std::fs::File::open(path).map_err(|err| CliError::TraceOpen {
            path: path.clone(),
            err,
        })?;
        let reader = BufReader::new(file);
        let parsed = if cli.msr {
            parse_msr(reader, path, cli.lun)
        } else {
            parse_systor(reader, path, cli.lun)
        };
        parsed.map_err(|err| CliError::TraceParse {
            path: path.clone(),
            err: err.to_string(),
        })
    } else {
        Ok(cli
            .preset
            .unwrap_or(LunPreset::Lun1)
            .generate_scaled(cli.scale))
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e @ CliError::UnknownFlag(_)) => {
            eprintln!("sim_cli: {e}");
            usage()
        }
        Err(e) => {
            eprintln!("sim_cli: {e}");
            std::process::exit(1);
        }
    }
}

/// Sudden-power-off run (`--crash-at N`): replace trace replay with the
/// deterministic crash workload (writes need known generations to
/// verify), cut power at the armed flash-op boundary, and — with
/// `--recover` — power-cycle, rebuild the mapping from the OOB journal
/// and check every acknowledged write. The trace/preset selection still
/// sets the workload *size*: one crash-workload write per trace record.
fn run_crash(cli: &Cli, mut config: SimConfig, crash_at: u64, writes: u64) -> Result<(), CliError> {
    config.track_content = true;
    config.crash = aftl_sim::CrashConfig {
        crash_at: Some(crash_at),
        recover: cli.recover,
        checkpoint_every: cli.checkpoint_every,
    };
    eprintln!(
        "crash run: cut after {crash_at} flash ops, up to {writes} writes, {} on {} @ {} KB pages…",
        match cli.checkpoint_every {
            Some(k) if cli.recover => format!("checkpointed rebuild (every {k} writes)"),
            Some(_) | None if !cli.recover => "no recovery".to_string(),
            _ => "full OOB scan rebuild".to_string(),
        },
        cli.scheme.name(),
        cli.page / 1024
    );
    let report =
        aftl_sim::crash::run_crash_single(&config, writes, cli.host_seed).map_err(CliError::Sim)?;

    println!("scheme           : {}", report.scheme.name());
    println!("acked writes     : {}", report.requests);
    if let Some(r) = &report.recovery {
        println!(
            "power cut        : {}",
            if r.fired { "fired" } else { "never fired" }
        );
        println!("rebuild mode     : {}", r.mode);
        println!("scanned pages    : {}", r.scanned_pages);
        println!("journal replays  : {}", r.journal_replays);
        println!(
            "rebuild reads    : {} ({:.1} us modelled)",
            r.rebuild_flash_reads,
            r.recovery_ns as f64 / 1e3
        );
        println!(
            "oracle           : {} sectors verified, {} lost, torn request exposed: {}",
            r.verified_sectors, r.lost_sectors, r.torn_exposed
        );
    } else {
        println!("power cut        : no recovery requested (--recover to rebuild)");
    }

    let json_path = match &cli.json {
        Some(path) => std::path::PathBuf::from(path),
        None => {
            let dir = aftl_bench::results_dir();
            std::fs::create_dir_all(&dir).map_err(|err| CliError::WriteOut {
                path: dir.display().to_string(),
                err,
            })?;
            dir.join(format!("sim_cli_crash_{}.json", report.scheme.name()))
        }
    };
    std::fs::write(&json_path, report.to_json()).map_err(|err| CliError::WriteOut {
        path: json_path.display().to_string(),
        err,
    })?;
    eprintln!("wrote {}", json_path.display());
    Ok(())
}

fn run() -> Result<(), CliError> {
    let cli = parse_cli(std::env::args().skip(1))?;
    validate(&cli)?;
    let mut trace = load_trace(&cli)?;
    let mut config = SimConfig::experiment(cli.scheme, cli.page);
    if let Some(cap) = cli.trace_events {
        config.observe.trace.enabled = true;
        config.observe.trace.capacity = cap;
    }
    config.fault = cli.fault;
    config.scheme_cfg.gc = cli.gc;
    if let Some(t) = cli.gc_threshold {
        config.scheme_cfg.gc_threshold = t;
    }
    if let Some(h) = cli.gc_hysteresis {
        config.scheme_cfg.gc_hysteresis = h;
    }
    config.scheme_cfg.pipeline.enabled = cli.pipeline;
    if let Some(n) = cli.map_batch {
        config.scheme_cfg.pipeline.map_batch = n;
    }
    if let Some(e) = cli.learned_max_error {
        config.scheme_cfg.learned.max_error = e;
    }
    if let Some(r) = cli.learned_retrain {
        config.scheme_cfg.learned.retrain_threshold = r;
    }
    if let Some(b) = cli.cache_bytes {
        config.scheme_cfg.cache_bytes = b;
    }
    if let Some(crash_at) = cli.crash_at {
        return run_crash(&cli, config, crash_at, trace.len() as u64);
    }
    let open_issue = |cli: &Cli| -> IssueModel {
        if let Some((burst, period_ns, spacing_ns)) = cli.burst {
            IssueModel::Open(ArrivalModel::Burst {
                burst,
                period_ns,
                spacing_ns,
            })
        } else if let Some(rate) = cli.arrival_rate {
            IssueModel::Open(ArrivalModel::Poisson {
                mean_iat_ns: (1e9 / rate).max(1.0) as u64,
            })
        } else if let Some(speedup) = cli.speedup {
            IssueModel::Open(ArrivalModel::TraceTimed { speedup })
        } else {
            IssueModel::Closed {
                outstanding: cli.outstanding,
            }
        }
    };

    let (report, ssd): (RunReport, Option<Ssd>) = if let Some(devices) = cli.devices {
        // Fleet run: range-shard the workload across N independent
        // devices and merge their manifests.
        let issue = open_issue(&cli);
        let tenants_per_device = cli.queues.unwrap_or(1);
        let weights = cli
            .tenant_weights
            .clone()
            .unwrap_or_else(|| vec![1; tenants_per_device]);
        let spec = FleetSpec {
            devices,
            host: HostConfig {
                arbitration: cli.arbitration,
                device_inflight: cli.device_inflight,
                seed: cli.host_seed,
            },
            issue,
            queue_depth: cli.queue_depth,
            tenants_per_device,
            weights,
            sequential: false,
        };
        eprintln!(
            "fleet run: {} ({} requests) over {devices} device(s) × {tenants_per_device} tenant(s) [{}] on {} @ {} KB pages…",
            trace.name,
            trace.len(),
            spec.issue.describe(),
            cli.scheme.name(),
            cli.page / 1024
        );
        let report = run_fleet(config, &trace, &spec).map_err(CliError::Sim)?;
        (report, None)
    } else if let Some(n) = cli.queues {
        // Hosted run: shard the trace across N tenants behind the
        // multi-queue host front end.
        let issue = open_issue(&cli);
        let weights = cli.tenant_weights.clone().unwrap_or_else(|| vec![1; n]);
        let host = HostConfig {
            arbitration: cli.arbitration,
            device_inflight: cli.device_inflight,
            seed: cli.host_seed,
        };
        eprintln!(
            "hosted run: {} ({} requests) over {n} tenant(s) [{}; depth {}; weights {:?}; {}] on {} @ {} KB pages…",
            trace.name,
            trace.len(),
            host.arbitration.name(),
            cli.queue_depth,
            weights,
            issue.describe(),
            cli.scheme.name(),
            cli.page / 1024
        );
        let tenants = tenants_from_trace(&trace, n, issue, cli.queue_depth, &weights);
        let report = run_hosted(config, tenants, &host).map_err(CliError::Sim)?;
        (report, None)
    } else {
        if let Some(speedup) = cli.speedup {
            // Rescale inter-arrival gaps, then replay as usual.
            ArrivalClock::for_trace(&trace, speedup).rescale(&mut trace);
            eprintln!("rescaled arrivals by x{speedup}");
        }
        eprintln!(
            "replaying {} ({} requests) on {} @ {} KB pages…",
            trace.name,
            trace.len(),
            cli.scheme.name(),
            cli.page / 1024
        );
        let ssd = Ssd::new(config).map_err(CliError::Device)?;
        let (report, ssd) = run_on_device_keep(ssd, &trace).map_err(CliError::Sim)?;
        (report, Some(ssd))
    };

    println!("scheme           : {}", report.scheme.name());
    println!("requests         : {}", report.requests);
    println!("read latency     : {:.3} ms", report.read_latency_ms());
    println!("write latency    : {:.3} ms", report.write_latency_ms());
    println!("overall I/O time : {:.2} s", report.io_time_s());
    println!(
        "flash writes     : {} (map {:.1}%)",
        report.flash_writes().total(),
        100.0 * report.flash_writes().map_ratio()
    );
    println!(
        "flash reads      : {} (map {:.1}%)",
        report.flash_reads().total(),
        100.0 * report.flash_reads().map_ratio()
    );
    println!("erase count      : {}", report.erases());
    println!(
        "GC               : {} episodes ({} preempted), {} pages moved ({} idle), {} throttled writes",
        report.gc.episodes,
        report.gc.preemptions,
        report.gc.migrated_pages,
        report.gc.idle_pages,
        report.counters.throttled_writes
    );
    println!(
        "mapping table    : {:.2} MB",
        report.mapping_table_bytes as f64 / 1e6
    );
    println!("DRAM accesses    : {}", report.dram_accesses());
    if cli.pipeline {
        println!(
            "map engine       : {} batched map-in reads, {} coalesced lookups, {} out-of-order issues",
            report.map_engine.batched_map_reads,
            report.map_engine.coalesced_lookups,
            report.map_engine.ooo_completions
        );
    }
    if cli.scheme == SchemeKind::Learned {
        let l = &report.learned;
        println!(
            "learned mapping  : {} predict hits, {} mis-predicts, {} verify reads, {} rebuilds, {} map-ins saved",
            l.predict_hits, l.mispredicts, l.verify_reads, l.segment_rebuilds, l.map_ins_saved
        );
    }
    if cli.scheme == SchemeKind::Across {
        let c = &report.counters;
        let (d, p, u) = c.across_write_distribution();
        println!(
            "across stats     : direct {:.2} / profitable {:.2} / unprofitable {:.2}, rollback ratio {:.3}",
            d, p, u, c.rollback_ratio()
        );
    }
    if cli.fault.injects() || cli.fault.wears() || cli.fault.min_spare_blocks > 0 {
        println!(
            "fault summary    : {} failed reads, {} failed programs, {} failed erases, {} worn out",
            report.flash.read_faults,
            report.flash.program_faults,
            report.flash.erase_faults,
            report.flash.worn_out_blocks
        );
        println!(
            "degradation      : {} retired blocks, {} lost pages, {} unrecoverable reads, {} rejected writes{}",
            report.flash.retired_blocks,
            report.counters.lost_pages + report.gc.lost_pages,
            report.counters.host_unrecoverable_reads,
            report.counters.write_rejections,
            if ssd.as_ref().is_some_and(|s| s.read_only()) {
                " (device is read-only)"
            } else {
                ""
            }
        );
    }
    println!("\nlatency percentiles (measured window):");
    print!("{}", report.latency_table());

    if let Some(qos) = &report.qos {
        println!(
            "\nper-tenant QoS ({} arbitration, device inflight {}, seed {}):",
            qos.arbitration, qos.device_inflight, qos.host_seed
        );
        println!(
            "{:<10}{:>3}{:>7}{:>14}{:>8}{:>12}{:>12}{:>12}{:>12}{:>8}{:>12}",
            "tenant",
            "w",
            "depth",
            "issue",
            "reqs",
            "rd p50[us]",
            "rd p99[us]",
            "wr p50[us]",
            "wr p99[us]",
            "stalls",
            "stalled[us]"
        );
        for t in &qos.tenants {
            println!(
                "{:<10}{:>3}{:>7}{:>14}{:>8}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>8}{:>12.1}",
                t.name,
                t.weight,
                t.queue_depth,
                t.issue,
                t.requests,
                t.read_latency.p50_ns as f64 / 1e3,
                t.read_latency.p99_ns as f64 / 1e3,
                t.write_latency.p50_ns as f64 / 1e3,
                t.write_latency.p99_ns as f64 / 1e3,
                t.queue_full_stalls,
                t.stalled_ns as f64 / 1e3,
            );
        }
    }

    if let Some(fleet) = &report.fleet {
        println!(
            "\nfleet topology ({} devices over {} sectors, base seed {}):",
            fleet.devices, fleet.span_sectors, fleet.base_seed
        );
        println!(
            "{:<8}{:>14}{:>14}{:>10}{:>14}{:>12}{:>10}",
            "device", "range", "", "reqs", "span[ms]", "programs", "erases"
        );
        for d in &fleet.per_device {
            println!(
                "{:<8}{:>14}{:>14}{:>10}{:>14.2}{:>12}{:>10}",
                format!("d{}", d.device),
                d.range_start,
                d.range_end,
                d.requests,
                d.sim_span_ns as f64 / 1e6,
                d.flash_programs,
                d.erases
            );
        }
    }

    // The full manifest is always written: --json wins, else results/.
    let json_path = match &cli.json {
        Some(path) => std::path::PathBuf::from(path),
        None => {
            let mut stem: String = trace
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            if cli.devices.is_some() {
                stem.push_str("_fleet");
            } else if cli.queues.is_some() {
                stem.push_str("_hosted");
            }
            let dir = aftl_bench::results_dir();
            std::fs::create_dir_all(&dir).map_err(|err| CliError::WriteOut {
                path: dir.display().to_string(),
                err,
            })?;
            dir.join(format!("sim_cli_{stem}_{}.json", report.scheme.name()))
        }
    };
    std::fs::write(&json_path, report.to_json()).map_err(|err| CliError::WriteOut {
        path: json_path.display().to_string(),
        err,
    })?;
    eprintln!("wrote {}", json_path.display());
    if let Some(ring) = ssd.as_ref().and_then(|s| s.observer().events()) {
        let path = json_path.with_extension("jsonl");
        std::fs::write(&path, ring.to_jsonl()).map_err(|err| CliError::WriteOut {
            path: path.display().to_string(),
            err,
        })?;
        eprintln!("wrote {} ({} events)", path.display(), ring.len());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse and validate one command line, as `run` does.
    fn check(line: &str) -> Result<Cli, CliError> {
        let cli = parse_cli(line.split_whitespace().map(String::from))?;
        validate(&cli).map(|()| cli)
    }

    fn rejected_flag(line: &str) -> &'static str {
        match check(line) {
            Err(CliError::Invalid { flag, .. }) => flag,
            Err(e) => panic!("{line}: wrong error {e}"),
            Ok(_) => panic!("{line}: accepted"),
        }
    }

    #[test]
    fn defaults_and_every_page_size_validate() {
        check("").unwrap();
        for page in aftl_bench::PAGE_SIZES {
            assert_eq!(check(&format!("--page {page}")).unwrap().page, page);
        }
    }

    #[test]
    fn a_page_size_without_a_geometry_is_invalid() {
        for page in ["5000", "0", "2048", "32768"] {
            assert_eq!(rejected_flag(&format!("--page {page}")), "--page");
        }
    }

    #[test]
    fn a_nonpositive_or_nonfinite_scale_is_invalid() {
        for scale in ["-1", "0", "NaN", "inf"] {
            assert_eq!(rejected_flag(&format!("--scale {scale}")), "--scale");
        }
    }

    #[test]
    fn a_closed_loop_of_zero_is_invalid() {
        assert_eq!(rejected_flag("--outstanding 0"), "--outstanding");
        assert_eq!(check("--outstanding 1").unwrap().outstanding, 1);
    }

    #[test]
    fn an_unknown_flag_is_named() {
        match check("--scheme ftl --only fig9") {
            Err(e @ CliError::UnknownFlag(_)) => assert_eq!(e.to_string(), "unknown flag --only"),
            other => panic!("wrong outcome {:?}", other.map(|_| ())),
        }
    }
}
