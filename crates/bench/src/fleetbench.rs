//! The tracked fleet-scaling benchmark: the fig8-small workload
//! range-sharded across 1, 2, 4 and 8 simulated devices (closed-loop,
//! one tenant per device) and the `BENCH_fleet.json` manifest recording
//! how aggregate throughput scales with device count.
//!
//! Two throughputs answer different questions:
//!
//! * **Simulated IOPS** (`sim_iops` = total requests / fleet simulated
//!   makespan): how much I/O the *modeled fleet* serves per simulated
//!   second. Devices run concurrently in simulated time — each serves
//!   ~1/N of the workload over a ~1/N span — so this scales with N and is
//!   the scaling number the manifest records and gates on. It is a
//!   simulation *result*: bit-reproducible for a fixed seed.
//! * **Wall time**: how fast this machine executes the fleet simulation.
//!   It scales with host cores and is no simulated result, so it stays
//!   out of the committed file (`benchmark/`'s `fleet2-ftl` workload
//!   measures it).

use aftl_core::scheme::SchemeKind;
use aftl_sim::fleet::{run_fleet, FleetSpec};
use aftl_sim::report::RunReport;
use aftl_trace::Trace;
use serde::{Deserialize, Serialize};

use crate::replay::{fig8_small_config, fig8_small_trace, FIG8_SMALL_SCALE};

/// Schema version of `BENCH_fleet.json`. Bump on any field change.
///
/// v2: the host-clock fields (`wall_ns`, `req_per_sec`, `samples`) and the
/// carried `baseline` section are gone.
pub const FLEET_BENCH_SCHEMA_VERSION: u32 = 2;

/// Device counts the scaling curve is measured at.
pub const FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];

/// The canonical fleet front end: one closed-loop tenant per device,
/// matching the single-device replay benchmark's issue discipline.
pub fn fleet_spec(devices: usize) -> FleetSpec {
    FleetSpec::new(devices)
}

/// One fleet fig8-small run: `devices` aged devices, range-sharded trace.
pub fn run_fig8_small_fleet(scheme: SchemeKind, trace: &Trace, devices: usize) -> RunReport {
    run_fleet(fig8_small_config(scheme), trace, &fleet_spec(devices))
        .expect("fleet fig8-small run succeeds")
}

/// One (scheme × device-count) point on the scaling curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetPoint {
    /// Number of sharded devices.
    pub devices: u64,
    /// Total requests served across the fleet.
    pub requests: u64,
    /// Fleet simulated makespan in nanoseconds (max over devices —
    /// they run concurrently in simulated time).
    pub sim_span_ns: u128,
    /// Aggregate simulated IOPS: `requests / sim_span`. The scaling
    /// metric.
    pub sim_iops: f64,
}

/// One scheme's scaling curve over [`FLEET_SIZES`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSchemeResult {
    /// Scheme name (`FTL` / `MRSM` / `Across-FTL`).
    pub scheme: String,
    /// One point per device count, in [`FLEET_SIZES`] order.
    pub points: Vec<FleetPoint>,
}

impl FleetSchemeResult {
    /// The point measured at `devices`, if present.
    pub fn at(&self, devices: u64) -> Option<&FleetPoint> {
        self.points.iter().find(|p| p.devices == devices)
    }

    /// Simulated-IOPS scaling factor from 1 device to `devices`.
    pub fn sim_scaling(&self, devices: u64) -> Option<f64> {
        let one = self.at(1)?;
        let n = self.at(devices)?;
        if one.sim_iops > 0.0 {
            Some(n.sim_iops / one.sim_iops)
        } else {
            None
        }
    }
}

/// The `BENCH_fleet.json` manifest: simulated scaling curves only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchFleetManifest {
    /// Manifest schema version ([`FLEET_BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload identifier.
    pub workload: String,
    /// Trace-length scale of the workload.
    pub scale: f64,
    /// Device counts measured.
    pub fleet_sizes: Vec<u64>,
    /// Per-scheme scaling curves.
    pub results: Vec<FleetSchemeResult>,
}

/// `scheme`'s scaling curve: one fleet run of `trace` per [`FLEET_SIZES`]
/// point.
pub fn fleet_result(scheme: SchemeKind, trace: &Trace) -> FleetSchemeResult {
    let points = FLEET_SIZES
        .iter()
        .map(|&devices| {
            let report = run_fig8_small_fleet(scheme, trace, devices);
            FleetPoint {
                devices: devices as u64,
                requests: report.requests,
                sim_span_ns: report.sim_span_ns,
                sim_iops: report.requests as f64 / (report.sim_span_ns as f64 / 1e9),
            }
        })
        .collect();
    FleetSchemeResult {
        scheme: scheme.name().to_string(),
        points,
    }
}

/// The canonical `BENCH_fleet.json`: the fig8-small trace at
/// [`FIG8_SMALL_SCALE`] over every [`FLEET_SIZES`] point, on every scheme.
pub fn fleet_manifest() -> BenchFleetManifest {
    let trace = fig8_small_trace(FIG8_SMALL_SCALE);
    BenchFleetManifest {
        schema_version: FLEET_BENCH_SCHEMA_VERSION,
        workload: "fig8-small-fleet".to_string(),
        scale: FIG8_SMALL_SCALE,
        fleet_sizes: FLEET_SIZES.iter().map(|&n| n as u64).collect(),
        results: SchemeKind::ALL.map(|s| fleet_result(s, &trace)).into(),
    }
}

/// Structural validation of a parsed `BENCH_fleet.json` (CI gate).
/// Checks shape, sane numbers, and the scaling invariant: ≥1.5×
/// aggregate simulated throughput at 8 devices vs 1.
pub fn validate_fleet_manifest(m: &BenchFleetManifest) -> std::result::Result<(), String> {
    if m.schema_version != FLEET_BENCH_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != expected {FLEET_BENCH_SCHEMA_VERSION}",
            m.schema_version
        ));
    }
    if m.workload.is_empty() {
        return Err("empty workload name".into());
    }
    if m.fleet_sizes.is_empty() || m.fleet_sizes[0] != 1 {
        return Err("fleet_sizes must start at 1 (the scaling baseline)".into());
    }
    let top = *m.fleet_sizes.last().unwrap();
    for scheme in SchemeKind::ALL {
        let row = (m.results.iter())
            .find(|r| r.scheme == scheme.name())
            .ok_or_else(|| format!("results is missing scheme {}", scheme.name()))?;
        if row.points.len() != m.fleet_sizes.len() {
            return Err(format!(
                "{}: {} points for {} fleet sizes",
                scheme.name(),
                row.points.len(),
                m.fleet_sizes.len()
            ));
        }
        for (p, &n) in row.points.iter().zip(&m.fleet_sizes) {
            if p.devices != n {
                return Err(format!(
                    "{}: point order mismatch ({} != {n})",
                    scheme.name(),
                    p.devices
                ));
            }
            if p.requests == 0 || p.sim_span_ns == 0 || p.sim_iops <= 0.0 {
                return Err(format!("{}/{n} devices: degenerate point", scheme.name()));
            }
        }
        let scaling =
            (row.sim_scaling(top)).ok_or_else(|| format!("{}: no scaling ratio", scheme.name()))?;
        if scaling < 1.5 {
            return Err(format!(
                "{}: simulated throughput scales only {scaling:.2}x at {top} devices (need >= 1.5x)",
                scheme.name()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_simulated_results_are_deterministic() {
        let trace = fig8_small_trace(0.001);
        let a = run_fig8_small_fleet(SchemeKind::Across, &trace, 4);
        let b = run_fig8_small_fleet(SchemeKind::Across, &trace, 4);
        assert_eq!(a.sim_span_ns, b.sim_span_ns);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.fleet, b.fleet);
    }

    #[test]
    fn fleet_manifest_round_trips_and_validates() {
        let trace = fig8_small_trace(0.002);
        let results: Vec<FleetSchemeResult> = SchemeKind::ALL
            .iter()
            .map(|&s| fleet_result(s, &trace))
            .collect();
        let m = BenchFleetManifest {
            schema_version: FLEET_BENCH_SCHEMA_VERSION,
            workload: "fig8-small-fleet".into(),
            scale: 0.002,
            fleet_sizes: FLEET_SIZES.iter().map(|&n| n as u64).collect(),
            results,
        };
        validate_fleet_manifest(&m).unwrap();
        let back: BenchFleetManifest =
            serde_json::from_str(&serde_json::to_string_pretty(&m).unwrap()).unwrap();
        validate_fleet_manifest(&back).unwrap();
        let r = &back.results[0];
        assert!(
            r.sim_scaling(8).unwrap() >= 1.5,
            "even a tiny sharded workload must scale in simulated time"
        );
    }

    #[test]
    fn fleet_manifest_validation_catches_flat_scaling() {
        let trace = fig8_small_trace(0.001);
        let mut results: Vec<FleetSchemeResult> = SchemeKind::ALL
            .iter()
            .map(|&s| fleet_result(s, &trace))
            .collect();
        // Fake a fleet that stops scaling: copy the 1-device point's
        // simulated numbers into every other point.
        let flat = results[0].points[0].clone();
        for p in results[0].points.iter_mut() {
            p.sim_iops = flat.sim_iops;
        }
        let m = BenchFleetManifest {
            schema_version: FLEET_BENCH_SCHEMA_VERSION,
            workload: "fig8-small-fleet".into(),
            scale: 0.001,
            fleet_sizes: FLEET_SIZES.iter().map(|&n| n as u64).collect(),
            results,
        };
        let err = validate_fleet_manifest(&m).unwrap_err();
        assert!(err.contains("scales only"), "{err}");
    }
}
