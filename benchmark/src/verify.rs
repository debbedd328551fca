//! The verify pass: are the outputs right? The head of the workload's own
//! trace is replayed on a small device that tracks sector contents, with
//! `aftl_core::oracle::Oracle` stamping every write and checking every
//! sector every read returns — through remapping, merging, rollback, cache
//! spill and GC. The full-size runs cannot carry content, so this is where
//! `failed` comes from beside refused requests.

use aftl_core::oracle::Oracle;
use aftl_flash::Result;
use aftl_host::{run_host, QueuedDevice, Served};
use aftl_sim::hosted::tenants_from_trace;
use aftl_sim::{warmup, Ssd};
use aftl_trace::{IoRecord, Trace};

use crate::traced::HostedDevice;
use crate::workloads::{Driver, Workload};

/// Requests of the trace the pass replays.
pub const REQUESTS: usize = 20_000;
/// Logical footprint the requests are wrapped into, in sectors (64 MiB):
/// small enough that the 512 MiB device collects garbage within the pass.
const LUN_SECTORS: u64 = (64 << 20) / 512;

/// Outcome of a verify pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verified {
    /// Requests issued.
    pub attempted: u64,
    /// Requests refused, or reads that returned a wrong sector.
    pub failed: u64,
    /// Reads the oracle checked.
    pub reads_checked: u64,
}

/// Replay the head of `trace` under the oracle, through the workload's
/// own driver shape (plain replay, or the host engine for the fleet).
pub fn verify(w: &Workload, trace: &Trace, seed: u64) -> Result<Verified> {
    let records: Vec<IoRecord> = trace
        .records
        .iter()
        .take(REQUESTS)
        .map(|r| IoRecord {
            sector: r.sector % (LUN_SECTORS - u64::from(r.sectors)),
            ..*r
        })
        .collect();
    let mut ssd = Ssd::new(w.verify_config(seed))?;
    let warm = ssd.config().warmup;
    warmup::age(&mut ssd, &warm)?;

    let mut out = Verified {
        attempted: records.len() as u64,
        ..Verified::default()
    };
    // Both shapes go through the adapter, which stamps writes and checks
    // reads; plain replay just calls it at the trace's own timestamps.
    let mut device = HostedDevice::new(ssd, Some(Oracle::new()));
    match w.driver {
        Driver::Replay => {
            for rec in &records {
                out.failed += u64::from(device.submit(rec.at_ns, rec) == Served::Rejected);
            }
        }
        Driver::Fleet => {
            let spec = w.fleet_spec(seed);
            let tenants = tenants_from_trace(
                &Trace::new("verify", records),
                spec.tenants_per_device,
                spec.issue,
                spec.queue_depth,
                &spec.weights,
            );
            let outcome = run_host(&mut device, tenants, &spec.host, |_| {});
            out.failed = outcome.tenants.iter().map(|t| t.rejected).sum();
        }
    }
    if let Some(e) = device.error {
        return Err(e);
    }
    out.reads_checked = device.classes.reads_total().requests;
    out.failed += device.violations;
    Ok(out)
}
