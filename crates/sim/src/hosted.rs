//! Hosted runs: the multi-queue host front end driving the simulated SSD.
//!
//! Where [`crate::experiment`] replays a trace one record at a time with
//! no contention model, a *hosted* run puts the `aftl-host` engine in
//! front of the device: per-tenant submission queues, RR/WRR arbitration,
//! a device-side inflight budget, and closed- or open-loop initiators.
//! The result is still one [`RunReport`], with a [`QosSection`] carrying
//! per-tenant end-to-end latency percentiles and backpressure counters.
//!
//! Two latencies show up in a hosted manifest and they measure different
//! things: the `classes`/`latency` sections record *device-side* latency
//! (submit → complete, as in replay), while the QoS section records
//! *end-to-end* latency (tenant arrival → complete), which additionally
//! charges queue wait and queue-full stall time to the tenant.

use aftl_flash::{FlashError, Nanos, PrefetchStage, Result};
use aftl_host::{run_host, HostConfig, QueuedDevice, Served, TenantConfig};
use aftl_trace::{IoOp, IoRecord};

use crate::config::SimConfig;
use crate::experiment::DeviceRun;
use crate::observe::LatencyHistogram;
use crate::report::{assemble, QosSection, RunReport, TenantQos};
use crate::ssd::Ssd;

/// The device step behind the host engine. The first hard error is
/// parked so the run can surface it after the engine returns.
impl QueuedDevice for DeviceRun {
    fn submit(&mut self, now_ns: Nanos, record: &IoRecord) -> Served {
        if self.error.is_some() {
            // Poisoned: refuse everything so the engine drains and exits.
            return Served::Rejected;
        }
        // The host clock, not the trace timestamp, is when the device
        // sees the command.
        let rec = IoRecord {
            at_ns: now_ns,
            ..*record
        };
        match self.step(&rec) {
            Ok(Some(latency_ns)) => Served::Done {
                complete_ns: now_ns.saturating_add(latency_ns),
            },
            Ok(None) => Served::Rejected,
            Err(e) => {
                self.error = Some(e);
                Served::Rejected
            }
        }
    }

    fn on_idle(&mut self, now_ns: Nanos, until_ns: Nanos) {
        if self.error.is_some() {
            return;
        }
        match self.ssd.on_idle(now_ns, until_ns) {
            Ok(gc) => self.window.gc.merge(&gc),
            // A device that went read-only mid-idle-GC keeps serving
            // reads; the step refuses the writes.
            Err(FlashError::ReadOnlyMode) => {}
            Err(e) => self.error = Some(e),
        }
    }

    fn prefetch(&self, record: &IoRecord, stage: PrefetchStage) {
        DeviceRun::prefetch(self, record, stage);
    }
}

/// Build, age (or crash-arm) and drive one device behind the host engine,
/// returning its [`DeviceRun`] and one QoS row per tenant. Deterministic
/// for a fixed `(config, tenants, host)` triple — `host.seed` feeds every
/// initiator.
pub(crate) fn run_device(
    config: SimConfig,
    tenants: Vec<TenantConfig>,
    host: &HostConfig,
) -> Result<(DeviceRun, Vec<TenantQos>)> {
    assert!(!tenants.is_empty(), "hosted run needs at least one tenant");
    let names: Vec<&str> = tenants.iter().map(|t| t.trace.name.as_str()).collect();
    let mut run = DeviceRun::start(Ssd::new(config)?, format!("hosted:{}", names.join("+")))?;
    let (span_ns, rows) = serve_tenants(&mut run, tenants, host);
    if let Some(e) = run.error.take() {
        return Err(e);
    }
    // The engine's span also counts refused requests, which complete at
    // the instant they were refused.
    run.window.span_ns = u128::from(span_ns);
    Ok((run.finish()?, rows))
}

/// Drive `device` behind the host engine until every tenant is served:
/// the engine's span and one QoS row per tenant.
fn serve_tenants(
    device: &mut impl QueuedDevice,
    tenants: Vec<TenantConfig>,
    host: &HostConfig,
) -> (Nanos, Vec<TenantQos>) {
    // Per tenant, end-to-end read and write latency (arrival → complete).
    let mut latency = vec![[LatencyHistogram::new(), LatencyHistogram::new()]; tenants.len()];
    let outcome = run_host(device, tenants, host, |c| {
        if !c.rejected {
            let op = match c.record.op {
                IoOp::Read => 0,
                IoOp::Write => 1,
            };
            latency[c.tenant][op].record(c.complete_ns.saturating_sub(c.arrival_ns));
        }
    });
    let rows = outcome
        .tenants
        .into_iter()
        .zip(latency)
        .map(|(t, [read, write])| TenantQos {
            name: t.name,
            weight: t.weight,
            queue_depth: t.queue_depth as u64,
            issue: t.issue,
            requests: t.completed + t.rejected,
            reads: read.count(),
            writes: write.count(),
            rejected_writes: t.rejected,
            queue_full_stalls: t.queue.queue_full_stalls,
            stalled_ns: t.queue.stalled_ns,
            max_occupancy: t.queue.max_occupancy,
            read_latency: read.summary(),
            write_latency: write.summary(),
        })
        .collect();
    (outcome.span_ns, rows)
}

/// The QoS section of a run whose devices all sat behind `host`.
pub(crate) fn qos_section(host: &HostConfig, tenants: Vec<TenantQos>) -> QosSection {
    QosSection {
        arbitration: host.arbitration.name().to_string(),
        device_inflight: host.device_inflight.max(1) as u64,
        host_seed: host.seed,
        tenants,
    }
}

/// Run the multi-queue host engine over a freshly built, aged device and
/// collect a [`RunReport`] whose [`QosSection`] carries the per-tenant
/// picture. Deterministic for a fixed `(config, tenants, host)` triple —
/// `host.seed` feeds every initiator.
pub fn run_hosted(
    config: SimConfig,
    tenants: Vec<TenantConfig>,
    host: &HostConfig,
) -> Result<RunReport> {
    run_hosted_keep(config, tenants, host).map(|(report, _)| report)
}

/// Like [`run_hosted`], but hands the device back alongside the report
/// (event-trace export, wear state, …).
pub fn run_hosted_keep(
    config: SimConfig,
    tenants: Vec<TenantConfig>,
    host: &HostConfig,
) -> Result<(RunReport, Ssd)> {
    let started = std::time::Instant::now();
    let (run, rows) = run_device(config, tenants, host)?;
    let qos = Some(qos_section(host, rows));
    let wall_seconds = started.elapsed().as_secs_f64();
    Ok(assemble(vec![run], None, qos, None, wall_seconds))
}

/// Split `trace` into `n` round-robin shards and dress each as a tenant
/// with the given issue model, queue depth and weight — the standard way
/// the CLI and benches build an N-tenant contention workload from one
/// trace.
pub fn tenants_from_trace(
    trace: &aftl_trace::Trace,
    n: usize,
    issue: aftl_host::IssueModel,
    queue_depth: usize,
    weights: &[u32],
) -> Vec<TenantConfig> {
    assert!(n >= 1, "need at least one tenant");
    trace
        .shard(n)
        .into_iter()
        .enumerate()
        .map(|(i, shard)| TenantConfig {
            name: format!("tenant{i}"),
            trace: shard,
            issue,
            queue_depth,
            weight: weights.get(i).copied().unwrap_or(1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SCHEMA_VERSION;
    use aftl_core::scheme::SchemeKind;
    use aftl_host::{Arbitration, ArrivalModel, IssueModel};
    use aftl_trace::{IoOp, IoRecord, Trace};
    use serde::Deserialize;

    fn tiny_trace(n: u64) -> Trace {
        let records = (0..n)
            .map(|i| IoRecord {
                at_ns: i * 5_000,
                sector: (i * 7) % 4096,
                sectors: 4 + (i % 8) as u32,
                op: if i % 3 == 0 { IoOp::Read } else { IoOp::Write },
            })
            .collect();
        Trace::new("unit", records)
    }

    fn tiny_config(scheme: SchemeKind) -> SimConfig {
        let mut config = SimConfig::test_tiny(scheme);
        config.track_content = false;
        config
    }

    #[test]
    fn hosted_run_emits_current_manifest_with_qos() {
        let trace = tiny_trace(300);
        let tenants = tenants_from_trace(
            &trace,
            2,
            IssueModel::Closed { outstanding: 4 },
            16,
            &[3, 1],
        );
        let host = HostConfig {
            arbitration: Arbitration::WeightedRoundRobin,
            device_inflight: 8,
            seed: 7,
        };
        let report = run_hosted(tiny_config(SchemeKind::Across), tenants, &host).unwrap();

        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.requests, 300);
        let qos = report.qos.as_ref().expect("hosted run carries QoS");
        assert_eq!(qos.arbitration, "wrr");
        assert_eq!(qos.tenants.len(), 2);
        let (a, b) = (&qos.tenants[0], &qos.tenants[1]);
        assert_eq!(a.requests + b.requests, 300);
        assert_eq!(a.weight, 3);
        assert_eq!(b.weight, 1);
        assert_eq!(a.reads + a.writes + a.rejected_writes, a.requests);
        assert!(a.write_latency.count > 0);
        assert!(a.write_latency.p50_ns > 0);

        // And the manifest round-trips with the QoS section intact.
        let back = RunReport::from_value(&serde_json::to_value(&report)).unwrap();
        let back_qos = back.qos.expect("qos survives the round trip");
        assert_eq!(back_qos.tenants[0].requests, a.requests);
        assert_eq!(
            back_qos.tenants[0].write_latency.p99_ns,
            a.write_latency.p99_ns
        );
    }

    #[test]
    fn hosted_run_is_deterministic_for_fixed_seed() {
        let trace = tiny_trace(200);
        let run = |seed: u64| {
            let tenants = tenants_from_trace(
                &trace,
                2,
                IssueModel::Open(ArrivalModel::Poisson {
                    mean_iat_ns: 20_000,
                }),
                8,
                &[2, 1],
            );
            let host = HostConfig {
                arbitration: Arbitration::WeightedRoundRobin,
                device_inflight: 4,
                seed,
            };
            run_hosted(tiny_config(SchemeKind::Baseline), tenants, &host).unwrap()
        };
        let (r1, r2) = (run(11), run(11));
        assert_eq!(r1.sim_span_ns, r2.sim_span_ns);
        assert_eq!(
            serde_json::to_string(&r1.flash),
            serde_json::to_string(&r2.flash)
        );
        let (q1, q2) = (r1.qos.unwrap(), r2.qos.unwrap());
        for (t1, t2) in q1.tenants.iter().zip(q2.tenants.iter()) {
            assert_eq!(t1, t2, "per-tenant QoS is bit-identical");
        }
    }

    /// Forwards the engine's commands to a [`DeviceRun`] but keeps the
    /// default [`QueuedDevice::prefetch`], which does nothing.
    struct Unprefetched<'a>(&'a mut DeviceRun);

    impl QueuedDevice for Unprefetched<'_> {
        fn submit(&mut self, now_ns: Nanos, record: &IoRecord) -> Served {
            self.0.submit(now_ns, record)
        }

        fn on_idle(&mut self, now_ns: Nanos, until_ns: Nanos) {
            self.0.on_idle(now_ns, until_ns)
        }
    }

    #[test]
    fn hosted_prefetch_is_inert() {
        let trace = tiny_trace(300);
        for kind in SchemeKind::WITH_LEARNED {
            let mut config = tiny_config(kind);
            config.warmup.used_fraction = 0.5;
            config.warmup.valid_fraction = 0.2;
            config.scheme_cfg.gc.idle_headroom = 0.1;
            let host = HostConfig {
                arbitration: Arbitration::WeightedRoundRobin,
                device_inflight: 6,
                seed: 3,
            };
            let drive = |prefetch: bool| {
                let issue = IssueModel::Open(ArrivalModel::Poisson { mean_iat_ns: 200 });
                let tenants = tenants_from_trace(&trace, 3, issue, 4, &[3, 2, 1]);
                let mut run =
                    DeviceRun::start(Ssd::new(config.clone()).unwrap(), "p".into()).unwrap();
                let (span, rows) = if prefetch {
                    serve_tenants(&mut run, tenants, &host)
                } else {
                    serve_tenants(&mut Unprefetched(&mut run), tenants, &host)
                };
                assert!(run.error.is_none(), "{} {:?}", kind.name(), run.error);
                let run = run.finish().unwrap();
                let window = format!("{:?}", run.window);
                let snapshot = format!("{:?}", run.ssd.snapshot());
                (
                    span,
                    rows,
                    window,
                    snapshot,
                    run.ssd.scheme().capture_image(),
                )
            };
            let with = drive(true);
            assert!(with.0 > 0 && with.1.iter().all(|t| t.requests == 100));
            assert_eq!(with, drive(false), "{}", kind.name());
        }
    }

    #[test]
    fn overloaded_open_loop_tenant_records_backpressure() {
        let trace = tiny_trace(400);
        // Back-to-back arrivals (1ns apart) against unit-timing ops
        // (~10ns programs) and a serialized device: the depth-4 queue
        // saturates and stalls pile up.
        let tenants = tenants_from_trace(
            &trace,
            1,
            IssueModel::Open(ArrivalModel::FixedInterval { interval_ns: 1 }),
            4,
            &[1],
        );
        let host = HostConfig {
            arbitration: Arbitration::RoundRobin,
            device_inflight: 1,
            seed: 3,
        };
        let report = run_hosted(tiny_config(SchemeKind::Baseline), tenants, &host).unwrap();
        let t = &report.qos.unwrap().tenants[0];
        assert!(t.queue_full_stalls > 0, "overload must surface as stalls");
        assert!(t.stalled_ns > 0);
        assert_eq!(t.max_occupancy, 4);
        assert_eq!(t.requests, 400, "backpressure delays, never drops");
    }
}
