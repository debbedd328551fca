//! The tracked hosted-QoS benchmark: the fig8-small workload sharded
//! across **four WRR tenants** (weights 4:2:1:1, closed-loop), run through
//! the multi-queue host front end on all three schemes, and the
//! `BENCH_host.json` manifest recording per-tenant QoS (p50/p99 end-to-end
//! latency, stall counters).
//!
//! Every field is a simulated result, so the file is a pure function of
//! the code: a rerun reproduces it byte for byte. Host time is measured
//! by `benchmark/`, not here.

use aftl_core::scheme::SchemeKind;
use aftl_host::{Arbitration, HostConfig, IssueModel, TenantConfig};
use aftl_sim::hosted::{run_hosted, tenants_from_trace};
use aftl_sim::report::RunReport;
use aftl_trace::Trace;
use serde::{Deserialize, Serialize};

use crate::replay::{fig8_small_config, fig8_small_trace, FIG8_SMALL_SCALE};

/// Schema version of `BENCH_host.json`. Bump on any field change.
///
/// v2: the host-clock fields (`ns_per_req`, `req_per_sec`, `samples`) and
/// the carried `baseline` section are gone.
pub const HOST_BENCH_SCHEMA_VERSION: u32 = 2;

/// The canonical contended-tenant setup: four closed-loop tenants with
/// 4:2:1:1 WRR weights.
pub const HOST_TENANTS: usize = 4;
/// WRR weights of the canonical setup.
pub const HOST_WEIGHTS: [u32; 4] = [4, 2, 1, 1];
/// Per-tenant outstanding IOs (closed loop) of the canonical setup.
pub const HOST_OUTSTANDING: u32 = 8;
/// Per-tenant submission-queue depth of the canonical setup.
pub const HOST_QUEUE_DEPTH: usize = 16;
/// Device-side inflight budget of the canonical setup.
pub const HOST_DEVICE_INFLIGHT: usize = 16;
/// Run seed of the canonical setup.
pub const HOST_SEED: u64 = 42;

/// The canonical host configuration (WRR, inflight budget, seed).
pub fn host_config() -> HostConfig {
    HostConfig {
        arbitration: Arbitration::WeightedRoundRobin,
        device_inflight: HOST_DEVICE_INFLIGHT,
        seed: HOST_SEED,
    }
}

/// Shard `trace` into the canonical four closed-loop tenants.
pub fn host_tenants(trace: &Trace) -> Vec<TenantConfig> {
    tenants_from_trace(
        trace,
        HOST_TENANTS,
        IssueModel::Closed {
            outstanding: HOST_OUTSTANDING,
        },
        HOST_QUEUE_DEPTH,
        &HOST_WEIGHTS,
    )
}

/// One hosted fig8-small run on `scheme` (aged device, canonical tenants).
pub fn run_fig8_small_hosted(scheme: SchemeKind, trace: &Trace) -> RunReport {
    run_hosted(
        fig8_small_config(scheme),
        host_tenants(trace),
        &host_config(),
    )
    .expect("hosted fig8-small run succeeds")
}

/// Per-tenant QoS row of the host manifest: the latency percentiles and
/// backpressure counters the contended-tenant experiment reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantRow {
    /// Tenant name (`tenant0`…).
    pub tenant: String,
    /// WRR weight.
    pub weight: u32,
    /// Requests the tenant issued.
    pub requests: u64,
    /// End-to-end read latency median (ns).
    pub read_p50_ns: u64,
    /// End-to-end read latency 99th percentile (ns).
    pub read_p99_ns: u64,
    /// End-to-end write latency median (ns).
    pub write_p50_ns: u64,
    /// End-to-end write latency 99th percentile (ns).
    pub write_p99_ns: u64,
    /// Queue-full stall episodes.
    pub queue_full_stalls: u64,
    /// Nanoseconds spent blocked on a full submission queue.
    pub stalled_ns: u64,
}

/// One scheme's hosted QoS results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostSchemeResult {
    /// Scheme name (`FTL` / `MRSM` / `Across-FTL`).
    pub scheme: String,
    /// Total requests across all tenants.
    pub requests: u64,
    /// Per-tenant QoS rows.
    pub tenants: Vec<TenantRow>,
}

/// The `BENCH_host.json` manifest: simulated results only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchHostManifest {
    /// Manifest schema version ([`HOST_BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload identifier.
    pub workload: String,
    /// Trace-length scale of the workload.
    pub scale: f64,
    /// Arbitration policy of the canonical setup (`wrr`).
    pub arbitration: String,
    /// WRR weights of the canonical setup.
    pub weights: Vec<u32>,
    /// Per-scheme results.
    pub results: Vec<HostSchemeResult>,
}

/// Extract the per-tenant QoS rows from a hosted run manifest.
pub fn tenant_rows(report: &RunReport) -> Vec<TenantRow> {
    let qos = report.qos.as_ref().expect("hosted report carries QoS");
    qos.tenants
        .iter()
        .map(|t| TenantRow {
            tenant: t.name.clone(),
            weight: t.weight,
            requests: t.requests,
            read_p50_ns: t.read_latency.p50_ns,
            read_p99_ns: t.read_latency.p99_ns,
            write_p50_ns: t.write_latency.p50_ns,
            write_p99_ns: t.write_latency.p99_ns,
            queue_full_stalls: t.queue_full_stalls,
            stalled_ns: t.stalled_ns,
        })
        .collect()
}

/// One hosted run of `trace` on `scheme`, reduced to its manifest row.
pub fn host_result(scheme: SchemeKind, trace: &Trace) -> HostSchemeResult {
    let report = run_fig8_small_hosted(scheme, trace);
    HostSchemeResult {
        scheme: scheme.name().to_string(),
        requests: report.requests,
        tenants: tenant_rows(&report),
    }
}

/// The canonical `BENCH_host.json`: the fig8-small trace at
/// [`FIG8_SMALL_SCALE`] over the four WRR tenants, on every scheme.
pub fn host_manifest() -> BenchHostManifest {
    let trace = fig8_small_trace(FIG8_SMALL_SCALE);
    BenchHostManifest {
        schema_version: HOST_BENCH_SCHEMA_VERSION,
        workload: "fig8-small-hosted".to_string(),
        scale: FIG8_SMALL_SCALE,
        arbitration: "wrr".to_string(),
        weights: HOST_WEIGHTS.to_vec(),
        results: SchemeKind::ALL.map(|s| host_result(s, &trace)).into(),
    }
}

/// Structural validation of a parsed `BENCH_host.json` (CI gate).
pub fn validate_host_manifest(m: &BenchHostManifest) -> std::result::Result<(), String> {
    if m.schema_version != HOST_BENCH_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != expected {HOST_BENCH_SCHEMA_VERSION}",
            m.schema_version
        ));
    }
    if m.workload.is_empty() {
        return Err("empty workload name".into());
    }
    if m.arbitration != "wrr" && m.arbitration != "rr" {
        return Err(format!("unknown arbitration {:?}", m.arbitration));
    }
    for scheme in SchemeKind::ALL {
        let row = (m.results.iter())
            .find(|r| r.scheme == scheme.name())
            .ok_or_else(|| format!("results is missing scheme {}", scheme.name()))?;
        if row.requests == 0 {
            return Err(format!("{}: degenerate row (0 requests)", scheme.name()));
        }
        if row.tenants.len() != m.weights.len() {
            return Err(format!(
                "{}: {} tenant rows for {} weights",
                scheme.name(),
                row.tenants.len(),
                m.weights.len()
            ));
        }
        for t in &row.tenants {
            if t.requests == 0 {
                return Err(format!(
                    "{}/{}: tenant issued no requests",
                    scheme.name(),
                    t.tenant
                ));
            }
            if t.write_p99_ns < t.write_p50_ns || t.read_p99_ns < t.read_p50_ns {
                return Err(format!("{}/{}: p99 below p50", scheme.name(), t.tenant));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hosted_qos_rows_are_deterministic() {
        let trace = fig8_small_trace(0.001);
        let a = tenant_rows(&run_fig8_small_hosted(SchemeKind::Across, &trace));
        let b = tenant_rows(&run_fig8_small_hosted(SchemeKind::Across, &trace));
        assert_eq!(a, b, "same seed ⇒ same per-tenant QoS");
        assert_eq!(a.len(), HOST_TENANTS);
        assert_eq!(a[0].weight, 4);
        let total: u64 = a.iter().map(|t| t.requests).sum();
        assert_eq!(total, trace.len() as u64);
    }

    #[test]
    fn host_manifest_round_trips_and_validates() {
        let trace = fig8_small_trace(0.001);
        let results: Vec<HostSchemeResult> = SchemeKind::ALL
            .iter()
            .map(|&s| host_result(s, &trace))
            .collect();
        let m = BenchHostManifest {
            schema_version: HOST_BENCH_SCHEMA_VERSION,
            workload: "fig8-small-hosted".into(),
            scale: 0.001,
            arbitration: "wrr".into(),
            weights: HOST_WEIGHTS.to_vec(),
            results,
        };
        validate_host_manifest(&m).unwrap();
        let back: BenchHostManifest =
            serde_json::from_str(&serde_json::to_string_pretty(&m).unwrap()).unwrap();
        validate_host_manifest(&back).unwrap();
    }

    #[test]
    fn host_manifest_validation_catches_tenant_mismatch() {
        let trace = fig8_small_trace(0.001);
        let mut results: Vec<HostSchemeResult> = SchemeKind::ALL
            .iter()
            .map(|&s| host_result(s, &trace))
            .collect();
        results[0].tenants.pop();
        let m = BenchHostManifest {
            schema_version: HOST_BENCH_SCHEMA_VERSION,
            workload: "fig8-small-hosted".into(),
            scale: 0.001,
            arbitration: "wrr".into(),
            weights: HOST_WEIGHTS.to_vec(),
            results,
        };
        let err = validate_host_manifest(&m).unwrap_err();
        assert!(err.contains("tenant rows"), "{err}");
    }
}
