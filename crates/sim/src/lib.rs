//! # aftl-sim — event-driven SSD simulator and experiment harness
//!
//! Glues the NAND substrate (`aftl-flash`), the FTL schemes (`aftl-core`)
//! and the workloads (`aftl-trace`) into the trace-driven simulator the
//! paper's evaluation methodology describes (§4.1):
//!
//! * [`config`] — device/scheme/warm-up configuration, including the
//!   scaled *experiment geometry* used by the reproduction runs,
//! * [`crash`] — sudden-power-off runs: a power cut armed on any run,
//!   OOB-journal recovery, the acknowledged-write verdict, and the crash
//!   workload,
//! * [`ssd`] — the simulated device: dispatches host requests to the
//!   active FTL scheme, runs GC, classifies requests (across vs normal),
//! * [`warmup`] — ages the SSD (90 % of capacity used, ~39.8 % valid)
//!   before measurements, as the paper does,
//! * [`metrics`] — per-run measurements and the one measured
//!   [`metrics::Window`] every driver fills: class latency sums, flash
//!   and scheme deltas — everything Figures 4 and 8–12 report,
//! * [`experiment`] — the one device step every run drives, one-call
//!   runners, and the sweep: traces replayed on forks of aged devices,
//!   fanned out across cores with rayon,
//! * [`hosted`] — multi-queue hosted runs: the `aftl-host` NVMe-style
//!   front end (per-tenant submission queues, RR/WRR arbitration,
//!   backpressure) driving the device, with per-tenant QoS in the
//!   manifest,
//! * [`fleet`] — fleet runs: the workload range-sharded across N
//!   independent simulated devices driven in parallel, merged
//!   deterministically into one manifest,
//! * [`observe`] — latency histograms per op kind and optional structured
//!   event tracing (JSONL),
//! * [`report`] — the [`RunReport`] run manifest, built by one assembler
//!   for every driver: config echo, warm-up stats, percentiles, counters,
//! * [`tables`] — fixed-width normalized tables mirroring the paper's
//!   figures.

#![warn(missing_docs)]

pub mod config;
pub mod crash;
pub mod experiment;
pub mod fleet;
pub mod hosted;
pub mod metrics;
pub mod observe;
pub mod report;
pub mod ssd;
pub mod tables;
pub mod warmup;

pub use config::{CrashConfig, ObserveConfig, SimConfig};
pub use crash::CrashOutcome;
pub use experiment::ComparisonReport;
pub use fleet::{run_fleet, FleetSpec};
pub use hosted::{run_hosted, tenants_from_trace};
pub use metrics::ClassMetrics;
pub use observe::{LatencyBreakdown, LatencyHistogram, Observer, OpKind};
pub use report::{DeviceSummary, FleetSection, QosSection, RecoverySection, RunReport, TenantQos};
pub use ssd::Ssd;
pub use warmup::WarmupStats;
