//! The tracked GC tail-latency benchmark: a **near-full device** under
//! **bursty open-loop writes**, preemptible GC vs. the atomic-greedy
//! collector, and the `BENCH_gc.json` manifest gating the p99.9
//! end-to-end write latency.
//!
//! The scenario is built to make atomic GC hurt: the device is aged to
//! within half a percent of the GC trigger with 70 % of pages still
//! valid, so every GC episode copies
//! dozens of TLC pages (~2 ms program each) before its erase — a single
//! episode stalls the queue for tens of milliseconds. Requests arrive in
//! bursts (the adversarial shape for tail latency), so every episode
//! lands under a pile of queued writes and surfaces directly at p99.9.
//! The preemptible run breaks the same episodes into
//! [`GC_TAIL_PREEMPT_PAGES`]-page slices that interleave with host
//! requests; the manifest's gate asserts this cuts p99.9 write latency by
//! at least [`GC_TAIL_GATE_RATIO`]× for FTL and Across-FTL.
//!
//! Everything is seeded, so the simulated latencies — and therefore the
//! gate — reproduce bit-for-bit on every machine.

use aftl_core::gc::GcPolicy;
use aftl_core::scheme::SchemeKind;
use aftl_host::{Arbitration, ArrivalModel, HostConfig, IssueModel, TenantConfig};
use aftl_sim::hosted::run_hosted;
use aftl_sim::report::RunReport;
use aftl_sim::SimConfig;
use aftl_trace::{IoOp, IoRecord, Trace};
use serde::{Deserialize, Serialize};

use crate::replay::fig8_small_config;

/// Schema version of `BENCH_gc.json`. Bump on any field change.
pub const GC_TAIL_SCHEMA_VERSION: u32 = 1;

/// Write requests of the full-scale scenario (scale 1.0).
pub const GC_TAIL_REQUESTS: u64 = 6_000;
/// Requests per burst.
pub const GC_TAIL_BURST: u32 = 16;
/// Gap between burst starts (ns). 16 one-page writes per 25 ms stays
/// under the device's GC-inclusive bandwidth (~100 TLC programs per
/// window across 8 chips vs. ~53 needed at write-amp ≈ 3), so queues
/// drain between bursts and the tail isolates GC stalls rather than
/// plain overload.
pub const GC_TAIL_PERIOD_NS: u64 = 25_000_000;
/// Gap between requests inside a burst (ns).
pub const GC_TAIL_SPACING_NS: u64 = 1_000;
/// Preemption budget (pages copied per GC slice) of the preemptible run.
pub const GC_TAIL_PREEMPT_PAGES: u32 = 4;
/// Aged-device fill level: 10.5 % free, a hair above the 10 % GC
/// trigger so the first bursts push the device into collection. (It
/// cannot be higher: warm-up writes through the FTL, and GC itself
/// refuses to leave the device below `threshold + hysteresis` free.)
pub const GC_TAIL_USED_FRACTION: f64 = 0.895;
/// Valid-data share after aging: high, so victims carry real copy work.
pub const GC_TAIL_VALID_FRACTION: f64 = 0.70;
/// Submission-queue depth of the single bursty tenant.
pub const GC_TAIL_QUEUE_DEPTH: usize = 64;
/// Run seed (initiators and warm-up derive from it).
pub const GC_TAIL_SEED: u64 = 42;
/// The gate: preemptible p99.9 write latency must be at least this many
/// times lower than atomic-greedy on the gated schemes.
pub const GC_TAIL_GATE_RATIO: f64 = 2.0;
/// Schemes the gate applies to (MRSM is reported but not gated — its
/// repack-buffer migrator amortizes differently).
pub const GC_TAIL_GATED: [SchemeKind; 2] = [SchemeKind::Baseline, SchemeKind::Across];

/// The bursty write-heavy workload: one-page (16-sector) requests over
/// the fig8-small 64 MiB logical span, 90 % writes, addresses from a
/// seeded LCG. Arrival timestamps are irrelevant — the host replaces
/// them with the [`ArrivalModel::Burst`] schedule.
pub fn gc_tail_trace(scale: f64) -> Trace {
    let n = ((GC_TAIL_REQUESTS as f64 * scale) as u64).max(100);
    let span_sectors: u64 = (64 << 20) / 512;
    let mut state: u64 = GC_TAIL_SEED | 1;
    let records = (0..n)
        .map(|i| {
            // Lehmer-style LCG; low bits discarded via the high half.
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            let sector = (r % (span_sectors / 16)) * 16;
            IoRecord {
                at_ns: 0,
                sector,
                sectors: 16,
                op: if i % 10 == 9 { IoOp::Read } else { IoOp::Write },
            }
        })
        .collect();
    Trace::new("gc-tail", records)
}

/// The near-full device for `scheme`, with the GC preemption budget set
/// to `preempt_pages` (0 = the atomic collector). Policy stays greedy in
/// both arms so the comparison isolates preemption granularity.
pub fn gc_tail_config(scheme: SchemeKind, preempt_pages: u32) -> SimConfig {
    let mut config = fig8_small_config(scheme);
    config.warmup.used_fraction = GC_TAIL_USED_FRACTION;
    config.warmup.valid_fraction = GC_TAIL_VALID_FRACTION;
    config.scheme_cfg.gc.policy = GcPolicy::Greedy;
    config.scheme_cfg.gc.preempt_pages = preempt_pages;
    config
}

/// One bursty near-full run of `trace` on `scheme`.
pub fn run_gc_tail(scheme: SchemeKind, trace: &Trace, preempt_pages: u32) -> RunReport {
    let tenants = vec![TenantConfig {
        name: "bursty".to_string(),
        trace: trace.clone(),
        issue: IssueModel::Open(ArrivalModel::Burst {
            burst: GC_TAIL_BURST,
            period_ns: GC_TAIL_PERIOD_NS,
            spacing_ns: GC_TAIL_SPACING_NS,
        }),
        queue_depth: GC_TAIL_QUEUE_DEPTH,
        weight: 1,
    }];
    let host = HostConfig {
        arbitration: Arbitration::RoundRobin,
        device_inflight: 16,
        seed: GC_TAIL_SEED,
    };
    run_hosted(gc_tail_config(scheme, preempt_pages), tenants, &host).expect("gc-tail run succeeds")
}

/// One scheme's atomic-vs-preemptible comparison. All latencies are
/// end-to-end (tenant arrival → completion), so queue time behind a GC
/// episode counts — that is the stall being measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GcTailRow {
    /// Scheme name (`FTL` / `MRSM` / `Across-FTL`).
    pub scheme: String,
    /// Requests per arm.
    pub requests: u64,
    /// Atomic-greedy p99.9 write latency (ns) — the embedded baseline.
    pub atomic_p999_ns: u64,
    /// Atomic-greedy p99 write latency (ns).
    pub atomic_p99_ns: u64,
    /// Longest single GC pause of the atomic arm (ns).
    pub atomic_max_pause_ns: u64,
    /// GC episodes the atomic arm ran.
    pub atomic_episodes: u64,
    /// Preemptible p99.9 write latency (ns).
    pub preempt_p999_ns: u64,
    /// Preemptible p99 write latency (ns).
    pub preempt_p99_ns: u64,
    /// Longest single GC pause of the preemptible arm (ns).
    pub preempt_max_pause_ns: u64,
    /// GC episodes the preemptible arm ran.
    pub preempt_episodes: u64,
    /// Slices the preemptible arm paused at (0 would mean the budget
    /// never bound — a broken scenario).
    pub preemptions: u64,
    /// `atomic_p999_ns / preempt_p999_ns` — the gated tail win.
    pub tail_ratio: f64,
}

/// The `BENCH_gc.json` manifest: the scenario echo plus one
/// atomic-vs-preemptible row per scheme. The baseline is *embedded* —
/// each row carries its own atomic-greedy numbers — so the gate needs no
/// prior file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchGcManifest {
    /// Manifest schema version ([`GC_TAIL_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload identifier.
    pub workload: String,
    /// Trace-length scale the numbers were measured at.
    pub scale: f64,
    /// Burst shape: requests per burst.
    pub burst: u32,
    /// Burst shape: window between burst starts (ns).
    pub period_ns: u64,
    /// Burst shape: spacing inside a burst (ns).
    pub spacing_ns: u64,
    /// Preemption budget of the preemptible arm (pages per slice).
    pub preempt_pages: u32,
    /// Aged fill level of the scenario.
    pub used_fraction: f64,
    /// Valid-data share of the scenario.
    pub valid_fraction: f64,
    /// The gate ratio rows must clear.
    pub gate_ratio: f64,
    /// Scheme names the gate applies to.
    pub gated: Vec<String>,
    /// Per-scheme comparisons.
    pub results: Vec<GcTailRow>,
}

/// Compare atomic vs. preemptible GC on `scheme` over `trace`.
pub fn compare_gc_tail(scheme: SchemeKind, trace: &Trace) -> GcTailRow {
    let atomic = run_gc_tail(scheme, trace, 0);
    let preempt = run_gc_tail(scheme, trace, GC_TAIL_PREEMPT_PAGES);
    let wr = |r: &RunReport| {
        let qos = r.qos.as_ref().expect("hosted run carries QoS");
        qos.tenants[0].write_latency
    };
    let (a, p) = (wr(&atomic), wr(&preempt));
    GcTailRow {
        scheme: scheme.name().to_string(),
        requests: atomic.requests,
        atomic_p999_ns: a.p999_ns,
        atomic_p99_ns: a.p99_ns,
        atomic_max_pause_ns: atomic.latency.gc_pause.max_ns,
        atomic_episodes: atomic.gc.episodes,
        preempt_p999_ns: p.p999_ns,
        preempt_p99_ns: p.p99_ns,
        preempt_max_pause_ns: preempt.latency.gc_pause.max_ns,
        preempt_episodes: preempt.gc.episodes,
        preemptions: preempt.gc.preemptions,
        tail_ratio: a.p999_ns as f64 / p.p999_ns.max(1) as f64,
    }
}

/// The canonical `BENCH_gc.json`: the full-scale bursty trace, atomic vs.
/// preemptible GC on every scheme.
pub fn gc_manifest() -> BenchGcManifest {
    let trace = gc_tail_trace(1.0);
    BenchGcManifest {
        schema_version: GC_TAIL_SCHEMA_VERSION,
        workload: "gc-tail-burst".to_string(),
        scale: 1.0,
        burst: GC_TAIL_BURST,
        period_ns: GC_TAIL_PERIOD_NS,
        spacing_ns: GC_TAIL_SPACING_NS,
        preempt_pages: GC_TAIL_PREEMPT_PAGES,
        used_fraction: GC_TAIL_USED_FRACTION,
        valid_fraction: GC_TAIL_VALID_FRACTION,
        gate_ratio: GC_TAIL_GATE_RATIO,
        gated: GC_TAIL_GATED.iter().map(|s| s.name().to_string()).collect(),
        results: SchemeKind::ALL.map(|s| compare_gc_tail(s, &trace)).into(),
    }
}

/// Structural + gate validation of a parsed `BENCH_gc.json` (CI gate).
pub fn validate_gc_manifest(m: &BenchGcManifest) -> std::result::Result<(), String> {
    if m.schema_version != GC_TAIL_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != expected {GC_TAIL_SCHEMA_VERSION}",
            m.schema_version
        ));
    }
    if m.burst == 0 || m.period_ns == 0 || m.preempt_pages == 0 {
        return Err("degenerate scenario echo".into());
    }
    for scheme in SchemeKind::ALL {
        let row = m
            .results
            .iter()
            .find(|r| r.scheme == scheme.name())
            .ok_or_else(|| format!("results missing scheme {}", scheme.name()))?;
        if row.requests == 0 || row.atomic_p999_ns == 0 || row.preempt_p999_ns == 0 {
            return Err(format!("{}: degenerate latency row", row.scheme));
        }
        if row.atomic_episodes == 0 || row.preempt_episodes == 0 {
            return Err(format!("{}: scenario never triggered GC", row.scheme));
        }
        let gated = m.gated.iter().any(|g| g == &row.scheme);
        // Ungated schemes may legitimately run episodes smaller than the
        // budget (MRSM's repack migrator moves far fewer pages).
        if gated && row.preemptions == 0 {
            return Err(format!("{}: preemption budget never bound", row.scheme));
        }
        if gated && row.tail_ratio < m.gate_ratio {
            return Err(format!(
                "{}: tail_ratio {:.2} below the {:.1}x gate (atomic p99.9 {} ns, preemptible {} ns)",
                row.scheme, row.tail_ratio, m.gate_ratio, row.atomic_p999_ns, row.preempt_p999_ns
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_tail_trace_is_seeded_and_write_heavy() {
        let a = gc_tail_trace(0.05);
        let b = gc_tail_trace(0.05);
        assert_eq!(a.records, b.records, "same seed, same workload");
        let writes = a.records.iter().filter(|r| r.op == IoOp::Write).count();
        assert!(writes * 10 >= a.records.len() * 8, "write-heavy");
        assert!(a.records.iter().all(|r| r.sectors == 16));
    }

    #[test]
    fn preemptible_arm_preempts_and_shortens_pauses() {
        // Small but real: enough bursts to trigger GC on the near-full
        // device in both arms.
        let trace = gc_tail_trace(0.05);
        let row = compare_gc_tail(SchemeKind::Baseline, &trace);
        assert!(row.atomic_episodes > 0, "atomic arm ran GC");
        assert!(row.preemptions > 0, "budget bound at least once");
        assert!(
            row.preempt_max_pause_ns < row.atomic_max_pause_ns,
            "slices must shorten the longest pause ({} vs {})",
            row.preempt_max_pause_ns,
            row.atomic_max_pause_ns
        );
    }

    #[test]
    fn gc_manifest_validation_catches_missing_preemption() {
        let template = GcTailRow {
            scheme: String::new(),
            requests: 100,
            atomic_p999_ns: 10,
            atomic_p99_ns: 5,
            atomic_max_pause_ns: 10,
            atomic_episodes: 1,
            preempt_p999_ns: 5,
            preempt_p99_ns: 2,
            preempt_max_pause_ns: 5,
            preempt_episodes: 1,
            preemptions: 0,
            tail_ratio: 2.0,
        };
        let results = SchemeKind::ALL
            .iter()
            .map(|s| GcTailRow {
                scheme: s.name().to_string(),
                ..template.clone()
            })
            .collect();
        let m = BenchGcManifest {
            schema_version: GC_TAIL_SCHEMA_VERSION,
            workload: "gc-tail".into(),
            scale: 1.0,
            burst: GC_TAIL_BURST,
            period_ns: GC_TAIL_PERIOD_NS,
            spacing_ns: GC_TAIL_SPACING_NS,
            preempt_pages: GC_TAIL_PREEMPT_PAGES,
            used_fraction: GC_TAIL_USED_FRACTION,
            valid_fraction: GC_TAIL_VALID_FRACTION,
            gate_ratio: GC_TAIL_GATE_RATIO,
            gated: vec!["FTL".into()],
            results,
        };
        let err = validate_gc_manifest(&m).unwrap_err();
        assert!(err.contains("preemption budget"), "{err}");
    }
}
