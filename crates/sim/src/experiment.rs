//! One-call experiment runners — one trace on one device, or a sweep of
//! traces over forks of aged devices — and the one device step every run
//! drives.

use aftl_core::scheme::SchemeKind;
use aftl_flash::{FlashError, Nanos, Result};
use aftl_trace::{IoRecord, Trace};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::crash::Cut;
use crate::metrics::Window;
use crate::report::{assemble, RunReport};
use crate::ssd::{Ssd, PREFETCH_AHEAD};
use crate::warmup::{self, WarmupStats};

/// One device's part of a run. Replay, each hosted device and each fleet
/// device feed their requests through [`DeviceRun::step`], which records
/// them into the device's measured window; once finished, the run is
/// ready for [`assemble`].
pub(crate) struct DeviceRun {
    pub(crate) ssd: Ssd,
    pub(crate) warmup: WarmupStats,
    pub(crate) window: Window,
    /// Requests the device answered (served or refused as read-only).
    pub(crate) requests: u64,
    /// The run's name when this device is the whole run.
    pub(crate) name: String,
    /// The armed power cut, when `config.crash.crash_at` is set.
    cut: Option<Cut>,
    /// A hosted run's first hard error, parked until the engine returns.
    pub(crate) error: Option<FlashError>,
}

impl DeviceRun {
    /// Ready `ssd` for a run and open its window: arm the power cut its
    /// config asks for — a crash-armed device is not aged, so the OOB
    /// journal covers every programmed page — or else age it (unless it
    /// was aged already, e.g. a fork of an aged one).
    pub(crate) fn start(mut ssd: Ssd, name: String) -> Result<Self> {
        let (crash_at, warm) = (ssd.config().crash.crash_at, ssd.config().warmup);
        let warmup = match crash_at {
            Some(budget) => {
                ssd.arm_crash(budget);
                WarmupStats::default()
            }
            None => warmup::age(&mut ssd, &warm)?,
        };
        Ok(DeviceRun {
            window: Window::open(&ssd),
            ssd,
            warmup,
            requests: 0,
            name,
            cut: crash_at.map(|_| Cut::default()),
            error: None,
        })
    }

    /// The device step: service one host request at `rec.at_ns` and
    /// record it. `Ok(Some(latency))` once served; `Ok(None)` when
    /// refused — a write to a read-only device (counted in the device's
    /// write rejections; reads keep flowing), or anything once an armed
    /// cut has fired.
    pub(crate) fn step(&mut self, rec: &IoRecord) -> Result<Option<Nanos>> {
        let mut req = self.ssd.request(rec);
        let done = match &mut self.cut {
            None => self.ssd.submit(&req),
            Some(cut) => {
                if !cut.admit(&mut self.ssd, &mut req) {
                    return Ok(None);
                }
                let done = self.ssd.submit(&req);
                cut.settle(&req, &done);
                done
            }
        };
        let served = match done {
            Ok(c) => {
                self.window.record(&c, req.at_ns);
                Some(c.latency_ns)
            }
            Err(FlashError::ReadOnlyMode) => None,
            // The cut tore this request: it was never answered.
            Err(FlashError::PowerCut) if self.cut.is_some() => return Ok(None),
            Err(e) => return Err(e),
        };
        self.requests += 1;
        Ok(served)
    }

    /// End the run: the crash verdict when a cut was armed (the device
    /// keeps it), then close the window.
    pub(crate) fn finish(mut self) -> Result<Self> {
        if let Some(cut) = self.cut.take() {
            let acked_writes = self.window.classes.writes_total().requests;
            self.ssd.crash = Some(cut.verdict(&mut self.ssd, acked_writes)?);
        }
        self.window = self.window.close(&self.ssd);
        Ok(self)
    }
}

/// Replay `trace` on a device configured by `config`, with aging, and
/// collect the full report.
pub fn run_single_with(config: SimConfig, trace: &Trace) -> Result<RunReport> {
    run_on_device(Ssd::new(config)?, trace)
}

/// Replay `trace` on an already-built device (custom schemes / ablations),
/// aging it first unless it was aged already (e.g. a fork of an aged one)
/// or a power cut is armed.
pub fn run_on_device(ssd: Ssd, trace: &Trace) -> Result<RunReport> {
    run_on_device_keep(ssd, trace).map(|(report, _)| report)
}

/// Like [`run_on_device`], but hands the device back alongside the report
/// for post-run inspection (event-trace export, wear state, the crash
/// verdict, …).
pub fn run_on_device_keep(ssd: Ssd, trace: &Trace) -> Result<(RunReport, Ssd)> {
    let started = std::time::Instant::now();
    let mut run = DeviceRun::start(ssd, trace.name.clone())?;
    // A record's first and last logical pages: the table slots of any
    // pages between them share a cache line with one of theirs, unless the
    // record spans more than nine pages. Taken before `Ssd::request` clamps
    // the record into the logical space, as prefetch skips a page past it.
    // Sectors per page are a power of two (`Geometry::validate`).
    let shift = run.ssd.spp().trailing_zeros();
    let ends = |rec: &IoRecord| {
        let last = rec.sector + u64::from(rec.sectors.max(1)) - 1;
        [rec.sector >> shift, last >> shift]
    };
    let records = &trace.records;
    for (i, rec) in records.iter().enumerate() {
        for (ahead, stage) in PREFETCH_AHEAD {
            if let Some(next) = records.get(i + ahead) {
                for lpn in ends(next) {
                    run.ssd.prefetch(lpn, stage);
                }
            }
        }
        run.step(rec)?;
    }

    // Wall clock covers the replayed workload only — device aging plus the
    // trace loop. The crash verdict, snapshot diffing and the observer's
    // percentile sorts below are not replay.
    let wall_seconds = started.elapsed().as_secs_f64();
    let run = run.finish()?;
    Ok(assemble(vec![run], None, None, None, wall_seconds))
}

/// One trace replayed on all three schemes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonReport {
    /// Workload name.
    pub trace: String,
    /// Physical page size the grid cell ran at.
    pub page_bytes: u32,
    /// Reports in [`SchemeKind::ALL`] order: FTL, MRSM, Across-FTL.
    pub runs: Vec<RunReport>,
}

impl ComparisonReport {
    /// The run for `scheme`; panics if the comparison didn't cover it.
    pub fn get(&self, scheme: SchemeKind) -> &RunReport {
        self.runs
            .iter()
            .find(|r| r.scheme == scheme)
            .expect("comparison covers all schemes")
    }
}

/// Age each device (in parallel; a no-op on an aged one), then replay
/// every trace on a fork of every device, in parallel. Cells come back
/// trace-major — `traces[t]` on `devices[d]` is cell
/// `t * devices.len() + d` — and each equals [`run_on_device`] on a fresh
/// copy of its device but for `wall_seconds`, which leaves the aging out.
/// A crash-armed device is never aged, so it has nothing to share: replay
/// it with [`run_on_device`].
pub fn sweep(devices: Vec<Ssd>, traces: &[Trace]) -> Result<Vec<RunReport>> {
    let age = |mut ssd: Ssd| {
        let warm = ssd.config().warmup;
        warmup::age(&mut ssd, &warm).map(|_| ssd)
    };
    let aged: Vec<Ssd> = devices.into_par_iter().map(age).collect::<Result<_>>()?;
    let cells: Vec<(&Trace, &Ssd)> = (traces.iter())
        .flat_map(|t| aged.iter().map(move |d| (t, d)))
        .collect();
    let replay = |&(trace, device): &(&Trace, &Ssd)| run_on_device(device.fork(), trace);
    cells.par_iter().map(replay).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_trace::LunPreset;

    /// A miniature end-to-end comparison run: Across-FTL must beat the
    /// baseline on flash programs for an across-heavy trace. Uses a small
    /// device + small-footprint trace so aging and GC stay fast in tests.
    #[test]
    fn mini_comparison_shows_the_papers_ordering() {
        let mut spec = LunPreset::Lun6.spec(0.006); // ~3.8 k requests
        spec.lun_bytes = 128 << 20;
        let trace = aftl_trace::VdiWorkload::new(spec).generate();

        let geometry = aftl_flash::GeometryBuilder::new()
            .channels(4)
            .chips_per_channel(2)
            .dies_per_chip(1)
            .planes_per_die(2)
            .blocks_per_plane(32)
            .pages_per_block(64)
            .page_bytes(8192)
            .build()
            .unwrap(); // 256 MiB
        let runs: Vec<RunReport> = SchemeKind::ALL
            .iter()
            .map(|&scheme| {
                let mut config = SimConfig::experiment(scheme, 8192);
                config.geometry = geometry;
                config.scheme_cfg = aftl_core::scheme::SchemeConfig::for_geometry(&geometry);
                run_single_with(config, &trace).unwrap()
            })
            .collect();
        let (ftl, across) = (&runs[0], &runs[2]);
        assert_eq!(ftl.requests, across.requests);
        assert!(
            across.flash.programs.user() < ftl.flash.programs.user(),
            "Across-FTL user programs {} must undercut FTL {}",
            across.flash.programs.user(),
            ftl.flash.programs.user()
        );
        assert!(across.counters.across_direct_writes > 0);
        assert!(ftl.erases() > 0, "aged device must GC during the run");
    }
}
