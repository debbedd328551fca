//! The feature cross-product at tiny scale: every scheme × {faults off,
//! on} × {atomic greedy GC, preemptible GC (4 pages a slice) with greedy,
//! cost-benefit or windowed victims} — 32 configurations of the small
//! device. Per configuration one device is aged and forked:
//!
//! * a fork and a freshly aged device replay one trace to equal reports;
//! * a second fork runs a content-checked random workload (a read may
//!   serve an acknowledged loss only with faults on);
//! * the configuration drives a 2-tenant hosted run and a 2-device fleet;
//! * with faults off, a scan and a checkpointed power cut recover clean
//!   under replay, a 2-tenant WRR hosted run and the 2-device fleet.
//!
//! `cargo test` builds with debug assertions, so every GC episode also
//! checks the victim index, MRSM its tables and Learned-FTL its index. A
//! failing cell panics with its coordinates and seed.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use aftl_core::gc::{GcPolicy, GcTuning};
use aftl_core::scheme::SchemeKind;
use aftl_flash::FaultConfig;
use aftl_host::{Arbitration, HostConfig, IssueModel};
use aftl_integration::small_ssd_config;
use aftl_sim::config::{CrashConfig, WarmupConfig};
use aftl_sim::crash::workload;
use aftl_sim::experiment::{run_on_device, run_single_with};
use aftl_sim::{run_fleet, run_hosted, tenants_from_trace, FleetSpec};
use aftl_sim::{RunReport, SimConfig, Ssd};
use aftl_trace::{IoOp, IoRecord, Trace};
use common::shadowed_workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeds every device, trace and workload of the matrix.
const SEED: u64 = 0x11A7_2024;

/// GC victim selection: atomic greedy episodes, or 4-page slices.
const GC: [(u32, GcPolicy); 4] = [
    (0, GcPolicy::Greedy),
    (4, GcPolicy::Greedy),
    (4, GcPolicy::CostBenefit),
    (4, GcPolicy::Windowed),
];

/// One device configuration of the matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    scheme: SchemeKind,
    faults: bool,
    preempt_pages: u32,
    policy: GcPolicy,
}

impl Cell {
    /// The small device, aged to just under the GC trigger, with this
    /// cell's features.
    fn config(&self) -> SimConfig {
        let fault = match self.faults {
            true => FaultConfig {
                seed: SEED,
                read_fail_rate: 0.01,
                program_fail_rate: 0.005,
                erase_fail_rate: 0.005,
                ..FaultConfig::disabled()
            },
            false => FaultConfig::disabled(),
        };
        let mut config = small_ssd_config(self.scheme, fault);
        config.warmup = WarmupConfig {
            used_fraction: 0.88,
            valid_fraction: 0.4,
            seed: SEED,
        };
        config.scheme_cfg.gc = GcTuning {
            policy: self.policy,
            preempt_pages: self.preempt_pages,
            ..GcTuning::default()
        };
        config
    }
}

/// `n` seeded mixed requests over the first 60 % of `sectors`.
fn mixed_trace(sectors: u64, n: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let records = (0..n)
        .map(|i| {
            let len = [1u32, 4, 8, 12, 16][rng.random_range(0..5usize)];
            IoRecord {
                at_ns: i * 20_000,
                sector: rng.random_range(0..sectors * 6 / 10 - u64::from(len)),
                sectors: len,
                op: if rng.random_bool(0.6) {
                    IoOp::Write
                } else {
                    IoOp::Read
                },
            }
        })
        .collect();
    Trace::new("matrix", records)
}

fn json(mut report: RunReport) -> String {
    report.wall_seconds = 0.0;
    serde_json::to_string(&report).expect("reports serialize")
}

/// Every check of one cell; panics on the first that fails.
fn run_cell(cell: &Cell) {
    let config = cell.config();
    let mut source = Ssd::new(config.clone()).expect("device");
    let trace = mixed_trace(source.logical_sectors(), 600);
    aftl_sim::warmup::age(&mut source, &config.warmup).expect("aging");

    let fork = run_on_device(source.fork(), &trace).expect("fork replay");
    assert!(fork.erases() > 0, "the replay never collected");
    let fresh = run_single_with(config.clone(), &trace).expect("fresh replay");
    assert_eq!(json(fork), json(fresh), "fork and fresh device differ");

    let mut fork = source.fork();
    shadowed_workload(&mut fork, cell.faults, SEED, 1_500).unwrap_or_else(|e| panic!("{e}"));
    if cell.faults {
        let stats = fork.array().stats();
        assert!(
            stats.read_faults + stats.program_faults > 0,
            "no fault fired"
        );
    }

    let tenants = |trace: &Trace| {
        tenants_from_trace(trace, 2, IssueModel::Closed { outstanding: 4 }, 8, &[2, 1])
    };
    let host = HostConfig {
        seed: SEED,
        ..HostConfig::default()
    };
    let hosted = run_hosted(config.clone(), tenants(&trace), &host).expect("hosted run");
    assert_eq!(hosted.requests, trace.records.len() as u64, "hosted");
    let fleet = run_fleet(config.clone(), &trace, &FleetSpec::new(2)).expect("fleet run");
    assert_eq!(fleet.requests, trace.records.len() as u64, "fleet");

    // Crash × faults is out of scope (DESIGN.md §14).
    if !cell.faults {
        let wrr = HostConfig {
            arbitration: Arbitration::WeightedRoundRobin,
            ..host
        };
        for checkpoint_every in [None, Some(25)] {
            let mut config = config.clone();
            config.crash = CrashConfig {
                crash_at: Some(700),
                recover: true,
                checkpoint_every,
            };
            // Enough writes that each fleet device outlasts the budget.
            let crash = workload(&config, 800, SEED);
            let runs = [
                ("replay", run_single_with(config.clone(), &crash)),
                ("hosted", run_hosted(config.clone(), tenants(&crash), &wrr)),
                ("fleet", run_fleet(config, &crash, &FleetSpec::new(2))),
            ];
            for (driver, report) in runs {
                let report = report.unwrap_or_else(|e| panic!("crash {driver}: {e}"));
                let section = report.recovery.expect("a recovered run reports");
                assert!(
                    section.fired && section.clean(),
                    "crash {driver} {checkpoint_every:?}: {section:?}"
                );
            }
        }
    }
}

/// The scheme's eight cells, each reporting its coordinates on failure.
fn run_scheme(scheme: SchemeKind) {
    for faults in [false, true] {
        for (preempt_pages, policy) in GC {
            let cell = Cell {
                scheme,
                faults,
                preempt_pages,
                policy,
            };
            if let Err(e) = catch_unwind(AssertUnwindSafe(|| run_cell(&cell))) {
                let why = e
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| e.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                panic!("matrix cell {cell:?}, seed {SEED:#x}: {why}");
            }
        }
    }
}

#[test]
fn baseline_cells() {
    run_scheme(SchemeKind::Baseline);
}

#[test]
fn mrsm_cells() {
    run_scheme(SchemeKind::Mrsm);
}

#[test]
fn across_cells() {
    run_scheme(SchemeKind::Across);
}

#[test]
fn learned_cells() {
    run_scheme(SchemeKind::Learned);
}
