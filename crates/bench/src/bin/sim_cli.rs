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
//! sim_cli --scheme across --crash-at 5000 --recover         # power cut + rebuild
//! sim_cli --scheme across --queues 2 --crash-at 5000 --recover  # ... of a hosted run
//! ```
//!
//! Every flag is one row of [`FLAGS`] — name, value hint, default, help
//! and a setter that parses, range-checks and stores the value — which
//! drives parsing, validation and `--help`; [`check_combinations`] holds
//! the few rules that involve two flags. The flags pick one of three run
//! modes sharing one tail: replay (default), hosted (`--queues N`: the
//! trace sharded over N tenants, plus a QoS section) and fleet
//! (`--devices N`: range-sharded devices, plus a fleet section; `--queues`
//! is then per device). `--crash-at N` arms a power cut in any of them: the
//! replayed trace is cut, and with `--recover` the devices are rebuilt and
//! verified, plus a recovery section. Every run writes its [`RunReport`] to
//! `--json`, else `results/sim_cli_<stem>_<scheme>.json` (directory from
//! `AFTL_RESULTS_DIR`); with `--trace-events N` a single-device run also
//! writes its event trace as JSONL next to it.

use aftl_core::scheme::SchemeKind;
use aftl_core::GcPolicy;
use aftl_host::{Arbitration, ArrivalModel, HostConfig, IssueModel};
use aftl_sim::experiment::run_on_device_keep;
use aftl_sim::fleet::{run_fleet_keep, FleetSpec};
use aftl_sim::hosted::{run_hosted_keep, tenants_from_trace};
use aftl_sim::{RunReport, SimConfig, Ssd};
use aftl_trace::parser::{parse_msr, parse_systor};
use aftl_trace::{ArrivalClock, LunPreset, Trace};
use std::fmt::Display;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Everything that can go wrong in a run: one clean line on stderr (no
/// panic, no backtrace) and the exit code — 2 for an unknown flag, which
/// is followed by the usage block, 1 for everything else.
#[derive(Debug)]
struct CliError {
    code: i32,
    line: String,
}

fn fail(line: String) -> CliError {
    CliError { code: 1, line }
}

fn invalid(flag: &str, got: impl Display, why: &str) -> CliError {
    fail(format!("invalid {flag} {got}: {why}"))
}

/// One command line, parsed: the device config every mode runs, the
/// workload, the run mode with its host front end, and where the manifest
/// goes.
struct Cmd {
    config: SimConfig,
    /// Trace file to replay; `None` generates `preset`.
    trace: Option<String>,
    preset: LunPreset,
    scale: f64,
    msr: bool,
    lun: Option<u32>,
    json: Option<String>,
    queues: Option<usize>,
    queue_depth: usize,
    host: HostConfig,
    /// Per-tenant WRR weights; missing entries are 1.
    weights: Vec<u32>,
    arrival_rate: Option<f64>,
    outstanding: u32,
    speedup: Option<f64>,
    burst: Option<(u32, u64, u64)>,
    devices: Option<usize>,
}

impl Default for Cmd {
    fn default() -> Self {
        Cmd {
            config: SimConfig::experiment(SchemeKind::Across, 8192),
            trace: None,
            preset: LunPreset::Lun1,
            scale: 0.2,
            msr: false,
            lun: None,
            json: None,
            queues: None,
            queue_depth: 16,
            host: HostConfig {
                arbitration: Arbitration::RoundRobin,
                device_inflight: 16,
                seed: 42,
            },
            weights: Vec::new(),
            arrival_rate: None,
            outstanding: 8,
            speedup: None,
            burst: None,
            devices: None,
        }
    }
}

impl Cmd {
    /// The tenants' issue discipline: bursty, Poisson or trace-timed open
    /// loop (the first given, in that order), else a closed loop.
    fn issue(&self) -> IssueModel {
        if let Some((burst, period_ns, spacing_ns)) = self.burst {
            IssueModel::Open(ArrivalModel::Burst {
                burst,
                period_ns,
                spacing_ns,
            })
        } else if let Some(rate) = self.arrival_rate {
            IssueModel::Open(ArrivalModel::Poisson {
                mean_iat_ns: (1e9 / rate).max(1.0) as u64,
            })
        } else if let Some(speedup) = self.speedup {
            IssueModel::Open(ArrivalModel::TraceTimed { speedup })
        } else {
            IssueModel::Closed {
                outstanding: self.outstanding,
            }
        }
    }
}

/// A setter: parse a flag's value, range-check it and write it into the
/// command; `Err` says why the value is invalid.
type Setter = fn(&mut Cmd, &str) -> Result<(), String>;

/// What `--help` says about a flag.
struct Doc {
    name: &'static str,
    /// Value placeholder; empty for a switch.
    hint: &'static str,
    default: &'static str,
    help: &'static str,
}

/// One flag: the row that documents, parses, checks and applies it.
struct Flag {
    doc: Doc,
    set: Setter,
}

/// Start a row of [`FLAGS`]: `arg(name, hint, default).help(…).set(…)`.
const fn arg(name: &'static str, hint: &'static str, default: &'static str) -> Doc {
    Doc {
        name,
        hint,
        default,
        help: "",
    }
}

impl Doc {
    const fn help(self, help: &'static str) -> Doc {
        Doc { help, ..self }
    }

    const fn set(self, set: Setter) -> Flag {
        Flag { doc: self, set }
    }
}

/// `v` as an integer.
fn int<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| "expected a non-negative integer".to_string())
}

/// `v` as an integer of at least 1.
fn count<T: FromStr + PartialOrd + From<u8>>(v: &str) -> Result<T, String> {
    let n: T = int(v)?;
    if n >= T::from(1) {
        Ok(n)
    } else {
        Err("must be at least 1".to_string())
    }
}

/// `v` as a finite number for which `ok` holds, else `why`.
fn num(v: &str, ok: fn(f64) -> bool, why: &str) -> Result<f64, String> {
    let x: f64 = v.parse().map_err(|_| "expected a number".to_string())?;
    if x.is_finite() && ok(x) {
        Ok(x)
    } else {
        Err(why.to_string())
    }
}

fn positive(v: &str) -> Result<f64, String> {
    num(v, |x| x > 0.0, "must be a finite number > 0")
}

/// A probability or a ratio.
fn unit(v: &str) -> Result<f64, String> {
    num(v, |x| (0.0..=1.0).contains(&x), "must be in [0, 1]")
}

/// A fraction of free space.
fn frac(v: &str) -> Result<f64, String> {
    num(v, |x| (0.0..1.0).contains(&x), "must be in [0, 1)")
}

/// `v` as the value `names` gives it.
fn pick<T: Copy>(v: &str, names: &[(&str, T)]) -> Result<T, String> {
    match names.iter().find(|(name, _)| *name == v) {
        Some(&(_, x)) => Ok(x),
        None => {
            let names: Vec<&str> = names.iter().map(|(name, _)| *name).collect();
            Err(format!("expected one of {}", names.join(", ")))
        }
    }
}

/// `v` as given (file names).
fn text(v: &str) -> Result<String, String> {
    Ok(v.to_string())
}

/// A switch, which takes no value: on.
fn on(_: &str) -> Result<bool, String> {
    Ok(true)
}

/// Every flag `sim_cli` takes, in `--help` order.
const FLAGS: &[Flag] = &[
    // The device and its scheme.
    arg("--scheme", "NAME", "across")
        .help("FTL: ftl, mrsm, across or learned")
        .set(|c, v| {
            let schemes = [
                ("ftl", SchemeKind::Baseline),
                ("mrsm", SchemeKind::Mrsm),
                ("across", SchemeKind::Across),
                ("learned", SchemeKind::Learned),
            ];
            pick(v, &schemes).map(|s| c.config.scheme = s)
        }),
    arg("--page", "BYTES", "8192")
        .help("flash page size: 4096, 8192 or 16384")
        .set(|c, v| {
            let page = int(v)?;
            if !aftl_bench::PAGE_SIZES.contains(&page) {
                return Err("the experiment geometry is defined for 4096, 8192 and 16384".into());
            }
            c.config = SimConfig::experiment(c.config.scheme, page);
            Ok(())
        }),
    // The workload and the outputs.
    arg("--preset", "LUN", "lun1")
        .help("synthetic VDI trace: lun1 … lun6")
        .set(|c, v| {
            c.preset = pick(v, &LunPreset::ALL.map(|p| (p.name(), p)))?;
            c.trace = None;
            Ok(())
        }),
    arg("--trace", "FILE", "-")
        .help("replay a trace file instead of a preset")
        .set(|c, v| text(v).map(|t| c.trace = Some(t))),
    arg("--format", "FMT", "systor")
        .help("trace file format: systor or msr")
        .set(|c, v| pick(v, &[("systor", false), ("msr", true)]).map(|m| c.msr = m)),
    arg("--lun", "N", "all")
        .help("replay only this LUN of a trace file")
        .set(|c, v| int(v).map(|n| c.lun = Some(n))),
    arg("--scale", "F", "0.2")
        .help("preset length (1.0 = Table 2's request count)")
        .set(|c, v| positive(v).map(|s| c.scale = s)),
    arg("--json", "FILE", "results/sim_cli_<stem>_<scheme>.json")
        .help("where the manifest goes")
        .set(|c, v| text(v).map(|j| c.json = Some(j))),
    arg("--trace-events", "N", "off")
        .help("trace the last N events, written as JSONL")
        .set(|c, v| {
            c.config.observe.trace.capacity = int(v)?;
            c.config.observe.trace.enabled = true;
            Ok(())
        }),
    // The host front end and the run mode.
    arg("--queues", "N", "-")
        .help("hosted run: N tenants (per device with --devices)")
        .set(|c, v| count(v).map(|n| c.queues = Some(n))),
    arg("--queue-depth", "D", "16")
        .help("submission-queue depth per tenant")
        .set(|c, v| count(v).map(|d| c.queue_depth = d)),
    arg("--arbitration", "rr|wrr", "rr")
        .help("queue arbitration: round robin or weighted")
        .set(|c, v| {
            c.host.arbitration = Arbitration::parse(v).ok_or("expected rr or wrr")?;
            Ok(())
        }),
    arg("--tenant-weights", "W1,W2,…", "1,1,…")
        .help("WRR weight per tenant (implies wrr)")
        .set(|c, v| {
            c.weights = v
                .split(',')
                .map(|w| int(w.trim()))
                .collect::<Result<_, _>>()?;
            c.host.arbitration = Arbitration::WeightedRoundRobin;
            Ok(())
        }),
    arg("--arrival-rate", "IOPS", "-")
        .help("open-loop Poisson arrivals per tenant")
        .set(|c, v| positive(v).map(|r| c.arrival_rate = Some(r))),
    arg("--outstanding", "K", "8")
        .help("closed loop: requests in flight per tenant")
        .set(|c, v| count(v).map(|k| c.outstanding = k)),
    arg("--speedup", "F", "-")
        .help("trace-timed arrivals, gaps divided by F")
        .set(|c, v| positive(v).map(|s| c.speedup = Some(s))),
    arg("--burst", "N,PERIOD_NS,SPACING_NS", "-")
        .help("open loop: N requests SPACING_NS apart every period")
        .set(|c, v| {
            let parts: Vec<&str> = v.split(',').map(str::trim).collect();
            let &[burst, period, spacing] = parts.as_slice() else {
                return Err("expected three comma-separated integers".into());
            };
            c.burst = Some((count(burst)?, count(period)?, int(spacing)?));
            Ok(())
        }),
    arg("--devices", "N", "-")
        .help("fleet run: range-shard the trace over N devices")
        .set(|c, v| count(v).map(|n| c.devices = Some(n))),
    arg("--device-inflight", "N", "16")
        .help("commands in flight inside a device")
        .set(|c, v| int(v).map(|n| c.host.device_inflight = n)),
    arg("--host-seed", "N", "42")
        .help("seed of the arrivals")
        .set(|c, v| int(v).map(|s| c.host.seed = s)),
    // Garbage collection.
    arg("--gc-policy", "POLICY", "greedy")
        .help("victim order: greedy, cost-benefit or windowed")
        .set(|c, v| {
            let policy = GcPolicy::parse(v).ok_or("expected greedy, cost-benefit or windowed")?;
            c.config.scheme_cfg.gc.policy = policy;
            Ok(())
        }),
    arg("--gc-preempt-pages", "N", "0")
        .help("pause a GC slice after N page copies (0 = atomic)")
        .set(|c, v| int(v).map(|n| c.config.scheme_cfg.gc.preempt_pages = n)),
    arg("--gc-window", "N", "8")
        .help("candidate window of the windowed policy")
        .set(|c, v| count(v).map(|n| c.config.scheme_cfg.gc.window = n)),
    arg("--gc-threshold", "F", "0.10")
        .help("free-block fraction that triggers GC")
        .set(|c, v| {
            let t = num(v, |t| t > 0.0 && t < 1.0, "must be in (0, 1)")?;
            c.config.scheme_cfg.gc_threshold = t;
            Ok(())
        }),
    arg("--gc-hysteresis", "F", "0.0005")
        .help("free fraction reclaimed past the threshold")
        .set(|c, v| frac(v).map(|h| c.config.scheme_cfg.gc_hysteresis = h)),
    arg("--gc-urgent-ratio", "F", "0.5")
        .help("below threshold × F free, GC ignores the budget")
        .set(|c, v| unit(v).map(|r| c.config.scheme_cfg.gc.urgent_ratio = r)),
    arg("--gc-idle-headroom", "F", "0")
        .help("idle GC up to threshold + F free (0 = off)")
        .set(|c, v| frac(v).map(|f| c.config.scheme_cfg.gc.idle_headroom = f)),
    arg("--gc-throttle-fraction", "F", "0")
        .help("below F free, delay each write (0 = off)")
        .set(|c, v| frac(v).map(|f| c.config.scheme_cfg.gc.throttle_fraction = f)),
    arg("--gc-throttle-delay-ns", "N", "2000000")
        .help("the delay per throttled write")
        .set(|c, v| int(v).map(|n| c.config.scheme_cfg.gc.throttle_delay_ns = n)),
    // The mapping layer.
    arg("--pipeline", "", "off")
        .help("pipelined map engine")
        .set(|c, v| on(v).map(|b| c.config.scheme_cfg.pipeline.enabled = b)),
    arg("--map-batch", "N", "8")
        .help("translation pages per coalescing window")
        .set(|c, v| count(v).map(|n| c.config.scheme_cfg.pipeline.map_batch = n)),
    arg("--learned-max-error", "N", "0")
        .help("verify-probe window ± N pages (at most 64)")
        .set(|c, v| {
            let e = int(v)?;
            if e > 64 {
                return Err("prediction window half-width must be at most 64 pages".into());
            }
            c.config.scheme_cfg.learned.max_error = e;
            Ok(())
        }),
    arg("--learned-retrain", "N", "16")
        .help("punched holes a segment absorbs before a rebuild")
        .set(|c, v| count(v).map(|n| c.config.scheme_cfg.learned.retrain_threshold = n)),
    arg("--cache-bytes", "N", "45 % of the PMT")
        .help("mapping-cache DRAM budget")
        .set(|c, v| int(v).map(|b| c.config.scheme_cfg.cache_bytes = b)),
    // Power cuts.
    arg("--crash-at", "N", "off")
        .help("cut power at the N-th flash op of the run")
        .set(|c, v| count(v).map(|n| c.config.crash.crash_at = Some(n))),
    arg("--recover", "", "off")
        .help("after the cut, rebuild and verify every acked write")
        .set(|c, v| on(v).map(|b| c.config.crash.recover = b)),
    arg("--checkpoint-every", "K", "full scan")
        .help("checkpoint the mapping every K writes")
        .set(|c, v| count(v).map(|k| c.config.crash.checkpoint_every = Some(k))),
    // Faults.
    arg("--fault-seed", "N", "0")
        .help("seed of the fault injector")
        .set(|c, v| int(v).map(|s| c.config.fault.seed = s)),
    arg("--read-fail-rate", "P", "0")
        .help("probability that a page read fails")
        .set(|c, v| unit(v).map(|p| c.config.fault.read_fail_rate = p)),
    arg("--program-fail-rate", "P", "0")
        .help("probability that a page program fails")
        .set(|c, v| unit(v).map(|p| c.config.fault.program_fail_rate = p)),
    arg("--erase-fail-rate", "P", "0")
        .help("probability that a block erase fails")
        .set(|c, v| unit(v).map(|p| c.config.fault.erase_fail_rate = p)),
    arg("--erase-endurance", "N", "unlimited")
        .help("erases before a block wears out")
        .set(|c, v| int(v).map(|n| c.config.fault.erase_endurance = n)),
    arg("--read-retries", "N", "8")
        .help("read-retry ladder depth")
        .set(|c, v| int(v).map(|n| c.config.fault.read_retries = n)),
    arg("--min-spare-blocks", "N", "0")
        .help("drop to read-only below N free blocks")
        .set(|c, v| int(v).map(|n| c.config.fault.min_spare_blocks = n)),
];

/// The `--help` text: one line per row of [`FLAGS`].
fn usage() -> String {
    let mut out = String::from("usage: sim_cli [--flag VALUE]…   (every flag is optional)\n");
    for Flag { doc, .. } in FLAGS {
        let flag = format!("{} {}", doc.name, doc.hint);
        out.push_str(&format!("  {flag:<42} {} [{}]\n", doc.help, doc.default));
    }
    out
}

/// Parse a command line (program name skipped). `--page` is applied
/// first, since it rebuilds the device every other flag configures; the
/// rest apply in command-line order, so a repeated flag's last value
/// wins.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Cmd, CliError> {
    let mut given: Vec<(&Doc, Setter, String)> = Vec::new();
    let mut args = args.into_iter().peekable();
    while let Some(a) = args.next() {
        if a == "--help" || a == "-h" {
            print!("{}", usage());
            std::process::exit(0);
        }
        let Some(Flag { doc, set }) = FLAGS.iter().find(|f| f.doc.name == a) else {
            let line = format!("unknown flag {a}");
            return Err(CliError { code: 2, line });
        };
        let value = if doc.hint.is_empty() {
            String::new()
        } else {
            let value = args.next_if(|v| !v.starts_with("--"));
            value.ok_or_else(|| invalid(doc.name, "(missing)", &format!("expects {}", doc.hint)))?
        };
        given.push((doc, *set, value));
    }
    given.sort_by_key(|(doc, ..)| doc.name != "--page");
    let mut cmd = Cmd::default();
    for (doc, set, value) in given {
        set(&mut cmd, &value).map_err(|why| invalid(doc.name, &value, &why))?;
    }
    check_combinations(&cmd)?;
    Ok(cmd)
}

/// The rules that involve two flags.
fn check_combinations(c: &Cmd) -> Result<(), CliError> {
    let crash = c.config.crash;
    if crash.recover && !crash.armed() {
        let why = "recovery needs a power cut to recover from (add --crash-at N)";
        return Err(invalid("--recover", "(set)", why));
    }
    if let (None, Some(k)) = (crash.crash_at, crash.checkpoint_every) {
        let why = "checkpoints only matter for crash runs (add --crash-at N)";
        return Err(invalid("--checkpoint-every", k, why));
    }
    let trace = c.config.observe.trace;
    if trace.enabled && c.devices.is_some_and(|n| n > 1) {
        let why = "event rings do not merge across devices (needs --devices 1)";
        return Err(invalid("--trace-events", trace.capacity, why));
    }
    let cache = c.config.scheme_cfg.cache_bytes;
    if cache < u64::from(c.config.geometry.page_bytes) {
        let why = "mapping cache must hold at least one translation page (>= --page bytes)";
        return Err(invalid("--cache-bytes", cache, why));
    }
    Ok(())
}

fn load_trace(c: &Cmd) -> Result<Trace, CliError> {
    let Some(path) = &c.trace else {
        return Ok(c.preset.generate_scaled(c.scale));
    };
    let file = std::fs::File::open(path)
        .map_err(|err| fail(format!("cannot open trace {path}: {err}")))?;
    let reader = BufReader::new(file);
    let parsed = if c.msr {
        parse_msr(reader, path, c.lun)
    } else {
        parse_systor(reader, path, c.lun)
    };
    parsed.map_err(|err| fail(format!("cannot parse trace {path}: {err}")))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("sim_cli: {}", e.line);
        if e.code == 2 {
            eprint!("{}", usage());
        }
        std::process::exit(e.code);
    }
}

fn run() -> Result<(), CliError> {
    let cmd = parse(std::env::args().skip(1))?;
    let mut trace = load_trace(&cmd)?;
    let (scheme, kb) = (
        cmd.config.scheme.name(),
        cmd.config.geometry.page_bytes / 1024,
    );
    let workload = format!(
        "{} ({} requests) on {scheme} @ {kb} KB pages",
        trace.name,
        trace.len()
    );
    let mut stem: String = (trace.name.chars())
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let issue = cmd.issue();
    let mut config = cmd.config;
    if config.crash.armed() {
        // The verdict reads every acknowledged sector's generation back.
        config.track_content = true;
        stem.push_str("_crash");
    }
    let (run, stem) = if let Some(devices) = cmd.devices {
        let fleet = FleetSpec {
            devices,
            host: cmd.host,
            issue,
            queue_depth: cmd.queue_depth,
            tenants_per_device: cmd.queues.unwrap_or(1),
            weights: cmd.weights,
        };
        eprintln!(
            "fleet run: {workload}, {devices} device(s) [{}]…",
            issue.describe()
        );
        (
            run_fleet_keep(config, &trace, &fleet),
            format!("{stem}_fleet"),
        )
    } else if let Some(n) = cmd.queues {
        eprintln!(
            "hosted run: {workload}, {n} tenant(s) [{}]…",
            issue.describe()
        );
        let tenants = tenants_from_trace(&trace, n, issue, cmd.queue_depth, &cmd.weights);
        let run = run_hosted_keep(config, tenants, &cmd.host);
        (run, format!("{stem}_hosted"))
    } else {
        if let Some(speedup) = cmd.speedup {
            ArrivalClock::for_trace(&trace, speedup).rescale(&mut trace);
            eprintln!("rescaled arrivals by x{speedup}");
        }
        eprintln!("replaying {workload}…");
        let run = Ssd::new(config).and_then(|ssd| run_on_device_keep(ssd, &trace));
        (run, stem)
    };
    let (report, ssd) = run.map_err(|e| fail(format!("simulation failed: {e}")))?;

    print_report(&report, &ssd);

    // The full manifest is always written: --json wins, else results/.
    let json_path = match cmd.json {
        Some(path) => PathBuf::from(path),
        None => {
            let dir = aftl_bench::results_dir();
            std::fs::create_dir_all(&dir)
                .map_err(|err| fail(format!("cannot write {}: {err}", dir.display())))?;
            dir.join(format!("sim_cli_{stem}_{}.json", report.scheme.name()))
        }
    };
    write_out(&json_path, &report.to_json())?;
    eprintln!("wrote {}", json_path.display());
    if let Some(ring) = ssd.observer().events() {
        let path = json_path.with_extension("jsonl");
        write_out(&path, &ring.to_jsonl())?;
        eprintln!("wrote {} ({} events)", path.display(), ring.len());
    }
    Ok(())
}

fn write_out(path: &Path, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|err| fail(format!("cannot write {}: {err}", path.display())))
}

/// The human-readable summary every mode prints: the headline numbers,
/// then whichever sections the run produced. `ssd` is the run's device
/// (device 0 of a fleet).
fn print_report(report: &RunReport, ssd: &Ssd) {
    let config = &report.config;
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
    if config.scheme_cfg.pipeline.enabled {
        println!(
            "map engine       : {} batched map-in reads, {} coalesced lookups, {} out-of-order issues",
            report.map_engine.batched_map_reads,
            report.map_engine.coalesced_lookups,
            report.map_engine.ooo_completions
        );
    }
    if report.scheme == SchemeKind::Learned {
        let l = &report.learned;
        println!(
            "learned mapping  : {} predict hits, {} mis-predicts, {} verify reads, {} rebuilds, {} map-ins saved",
            l.predict_hits, l.mispredicts, l.verify_reads, l.segment_rebuilds, l.map_ins_saved
        );
    }
    if report.scheme == SchemeKind::Across {
        let c = &report.counters;
        let (d, p, u) = c.across_write_distribution();
        println!(
            "across stats     : direct {:.2} / profitable {:.2} / unprofitable {:.2}, rollback ratio {:.3}",
            d, p, u, c.rollback_ratio()
        );
    }
    let fault = &config.fault;
    if fault.injects() || fault.wears() || fault.min_spare_blocks > 0 {
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
            if report.fleet.is_none() && ssd.read_only() {
                " (device is read-only)"
            } else {
                ""
            }
        );
    }
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
    } else if config.crash.armed() {
        println!("power cut        : no recovery requested (--recover to rebuild)");
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(line: &str) -> Result<Cmd, CliError> {
        parse(line.split_whitespace().map(String::from))
    }

    /// The one line `sim_cli` prints for a rejected `line` (exit code 1).
    fn rejected(line: &str) -> String {
        match check(line) {
            Err(e) => {
                assert_eq!(e.code, 1, "{line}: {}", e.line);
                e.line
            }
            Ok(_) => panic!("{line}: accepted"),
        }
    }

    #[test]
    fn defaults_and_every_page_size_validate() {
        check("").unwrap();
        for page in aftl_bench::PAGE_SIZES {
            let cmd = check(&format!("--page {page}")).unwrap();
            assert_eq!(cmd.config.geometry.page_bytes, page);
        }
    }

    #[test]
    fn a_page_size_without_a_geometry_is_invalid() {
        for page in ["5000", "0", "2048", "32768"] {
            let line = rejected(&format!("--page {page}"));
            assert!(
                line.starts_with(&format!("invalid --page {page}: ")),
                "{line}"
            );
        }
    }

    #[test]
    fn a_nonpositive_or_nonfinite_scale_is_invalid() {
        for scale in ["-1", "0", "NaN", "inf"] {
            let line = rejected(&format!("--scale {scale}"));
            assert!(line.starts_with("invalid --scale"), "{line}");
        }
    }

    #[test]
    fn a_closed_loop_of_zero_is_invalid() {
        assert!(rejected("--outstanding 0").starts_with("invalid --outstanding 0: "));
        assert_eq!(check("--outstanding 1").unwrap().outstanding, 1);
    }

    #[test]
    fn an_unknown_flag_is_named() {
        match check("--scheme ftl --only fig9") {
            Err(e) => assert_eq!((e.code, e.line.as_str()), (2, "unknown flag --only")),
            Ok(_) => panic!("accepted"),
        }
    }

    #[test]
    fn a_nonfinite_arrival_rate_is_invalid() {
        for rate in ["NaN", "inf"] {
            let line = rejected(&format!("--queues 2 --arrival-rate {rate}"));
            assert!(line.starts_with(&format!("invalid --arrival-rate {rate}: ")));
        }
    }

    #[test]
    fn a_lun_that_is_not_a_number_is_invalid() {
        let line = rejected("--lun abc");
        assert_eq!(line, "invalid --lun abc: expected a non-negative integer");
    }

    #[test]
    fn an_unknown_trace_format_is_invalid() {
        assert_eq!(
            rejected("--format bogus"),
            "invalid --format bogus: expected one of systor, msr"
        );
        assert!(check("--format msr").unwrap().msr);
    }

    #[test]
    fn a_bare_trace_is_invalid() {
        assert_eq!(
            rejected("--trace"),
            "invalid --trace (missing): expects FILE"
        );
        // A flag is never taken for the missing value.
        let line = rejected("--trace --scheme ftl");
        assert_eq!(line, "invalid --trace (missing): expects FILE");
    }

    #[test]
    fn a_bare_json_is_invalid() {
        assert_eq!(rejected("--json"), "invalid --json (missing): expects FILE");
    }

    #[test]
    fn an_unparsable_value_says_why() {
        assert_eq!(
            rejected("--page abc"),
            "invalid --page abc: expected a non-negative integer"
        );
        assert_eq!(
            rejected("--gc-threshold x"),
            "invalid --gc-threshold x: expected a number"
        );
    }

    #[test]
    fn trace_events_are_single_device() {
        let line = rejected("--devices 2 --trace-events 100");
        assert!(line.starts_with("invalid --trace-events 100: "), "{line}");
        check("--devices 1 --trace-events 100").unwrap();
        check("--queues 2 --trace-events 100").unwrap();
        check("--crash-at 3000 --trace-events 100").unwrap();
    }

    #[test]
    fn a_power_cut_arms_every_run_mode() {
        for mode in ["", "--queues 2", "--devices 2", "--devices 2 --queues 2"] {
            let cmd = check(&format!("{mode} --crash-at 3000 --recover")).unwrap();
            assert_eq!(cmd.config.crash.crash_at, Some(3000), "{mode}");
        }
        let line = rejected("--queues 2 --recover");
        assert!(line.starts_with("invalid --recover (set): "), "{line}");
        let line = rejected("--devices 2 --checkpoint-every 10");
        assert!(
            line.starts_with("invalid --checkpoint-every 10: "),
            "{line}"
        );
    }

    #[test]
    fn page_applies_before_the_flags_it_would_reset() {
        let cmd = check("--cache-bytes 16384 --scheme mrsm --page 4096").unwrap();
        assert_eq!(cmd.config.geometry.page_bytes, 4096);
        assert_eq!(cmd.config.scheme_cfg.cache_bytes, 16384);
        assert_eq!(cmd.config.scheme, SchemeKind::Mrsm);
    }

    /// README's flag tables and examples are the user's view of the table:
    /// every `--flag` they name is a row, and `--help` lists every row.
    #[test]
    fn every_flag_the_readme_names_is_a_row_and_help_lists_every_row() {
        // `--help`, and the flags of the other commands README shows
        // (cargo, benchmark/run.sh).
        const OTHER: [&str; 7] = [
            "--help",
            "--release",
            "--workspace",
            "--bin",
            "--example",
            "--bench",
            "--smoke",
        ];
        let readme = include_str!("../../../../README.md");
        let mut named = std::collections::BTreeSet::new();
        for (i, _) in readme.match_indices("--") {
            let name: String = (readme[i + 2..].chars())
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
                .collect();
            if name.starts_with(|c: char| c.is_ascii_lowercase()) {
                named.insert(format!("--{name}"));
            }
        }
        named.retain(|name| !OTHER.contains(&name.as_str()));
        assert!(named.len() > 30, "README names only {named:?}");
        for name in &named {
            assert!(
                FLAGS.iter().any(|f| f.doc.name == name),
                "README names {name}, which is no row of sim_cli's table"
            );
        }
        let help = usage();
        for f in FLAGS {
            assert!(
                help.split_whitespace().any(|w| w == f.doc.name),
                "--help omits {}",
                f.doc.name
            );
        }
    }
}
