//! The simulated SSD: owns the flash array, the allocator and the active
//! FTL scheme, dispatches host requests, and runs GC after writes.

use aftl_core::gc::GcReport;
use aftl_core::recovery::{Checkpoint, RecoveryStats};
use aftl_core::request::{HostRequest, ReqKind};
use aftl_core::scheme::{FtlEnv, FtlScheme, PrefetchStage, Scheme, ServedSector, ServiceOutcome};
use aftl_flash::{Allocator, FlashArray, FlashError, Nanos, Result};
use aftl_trace::{IoOp, IoRecord};

use crate::config::SimConfig;
use crate::crash::CrashOutcome;
use crate::metrics::StatsSnapshot;
use crate::observe::{Observer, Phase};

/// How many requests ahead of the one being served the replay and aging
/// loops run each stage of [`Ssd::prefetch`] (DESIGN.md §9): the far stage
/// early enough for a mapping entry to arrive, the near stage late enough
/// that the entry it reads is still cached.
pub(crate) const PREFETCH_AHEAD: [(usize, PrefetchStage); 2] =
    [(8, PrefetchStage::Far), (3, PrefetchStage::Near)];

/// A serviced request.
#[derive(Debug, Clone)]
pub struct Completed {
    /// Read or write.
    pub kind: ReqKind,
    /// Across-page at this device's page size (the paper's §1 predicate).
    pub across: bool,
    /// Request length in sectors.
    pub sectors: u32,
    /// Submit-to-completion time on the simulation clock.
    pub latency_ns: Nanos,
    /// Flash reads issued for this request (GC excluded).
    pub flash_reads: u64,
    /// Flash programs issued for this request (GC excluded).
    pub flash_programs: u64,
    /// GC work triggered right after this request.
    pub gc: GcReport,
    /// Oracle provenance (content tracking only).
    pub served: Vec<ServedSector>,
}

/// The simulated device. Not `Clone`: [`Ssd::fork`] is the one copy.
pub struct Ssd {
    config: SimConfig,
    array: FlashArray,
    alloc: Allocator,
    scheme: Scheme,
    observer: Observer,
    /// Whether requests reach the observer: off while aging.
    observing: bool,
    read_only: bool,
    write_rejections: u64,
    throttled_writes: u64,
    /// Most recent quiescent-point mapping checkpoint (crash experiments).
    checkpoint: Option<Checkpoint>,
    pub(crate) aged: Option<crate::warmup::WarmupStats>,
    /// The verdict of the crash-armed run this device finished.
    pub(crate) crash: Option<CrashOutcome>,
}

impl Ssd {
    /// Build a device with the scheme named by `config.scheme`.
    pub fn new(config: SimConfig) -> Result<Self> {
        let scheme = Scheme::new(config.scheme, &config.geometry, config.scheme_cfg);
        Self::with_scheme(config, scheme)
    }

    /// Build a device around a configured scheme instance (ablation
    /// studies). `config.scheme` is used only for labelling.
    pub fn with_scheme(config: SimConfig, mut scheme: Scheme) -> Result<Self> {
        let mut array = FlashArray::new(config.geometry, config.timing)?;
        if config.track_content {
            array.enable_content_tracking();
        }
        array.configure_faults(&config.fault);
        let observer = Observer::new(&config.observe);
        if observer.enabled() {
            array.enable_op_log();
            scheme.as_dyn_mut().set_event_log(true);
        }
        let alloc = Allocator::new(&array);
        Ok(Ssd {
            config,
            array,
            alloc,
            scheme,
            observer,
            observing: true,
            read_only: false,
            write_rejections: 0,
            throttled_writes: 0,
            checkpoint: None,
            aged: None,
            crash: None,
        })
    }

    /// An independent copy of this device with a fresh observer:
    /// measurement is not device state.
    pub fn fork(&self) -> Ssd {
        Ssd {
            config: self.config.clone(),
            array: self.array.clone(),
            alloc: self.alloc.clone(),
            scheme: self.scheme.clone(),
            observer: Observer::new(&self.config.observe),
            checkpoint: self.checkpoint.clone(),
            crash: None,
            ..*self
        }
    }

    /// Arm a deterministic sudden power-off after `crash_at` more flash
    /// operations, and start OOB crash journaling (see
    /// [`FlashArray::arm_crash`]). Call before the first write, so every
    /// programmed page carries OOB records; the array panics otherwise.
    pub fn arm_crash(&mut self, crash_at: u64) {
        self.array.arm_crash(crash_at);
    }

    /// The verdict of the crash-armed run this device finished (see
    /// [`crate::crash`]); `None` unless `config.crash.crash_at` was set.
    pub fn crash_outcome(&self) -> Option<&CrashOutcome> {
        self.crash.as_ref()
    }

    /// Whether the armed power cut has fired.
    #[inline]
    pub fn powered_off(&self) -> bool {
        self.array.powered_off()
    }

    /// Snapshot the scheme's mapping and per-block state as the recovery
    /// checkpoint (call between requests — a quiescent point).
    pub fn take_checkpoint(&mut self) {
        let image = self.scheme.as_dyn().capture_image();
        self.checkpoint = Some(Checkpoint::capture(&self.array, image));
    }

    /// Power-cycle the device after an armed crash fired: restore power,
    /// rebuild the mapping from the OOB journal (seeded by the checkpoint
    /// when one was taken), and replace the scheme and allocator with the
    /// recovered state (its scheme logging events if the observer is on).
    pub fn power_cycle_recover(&mut self) -> Result<RecoveryStats> {
        self.array.power_restore();
        let (mut scheme, alloc, stats) = aftl_core::crash_recover(
            &mut self.array,
            self.config.scheme_cfg,
            self.config.scheme,
            self.checkpoint.as_ref(),
        )?;
        scheme.as_dyn_mut().set_event_log(self.observer.enabled());
        if let (Scheme::Across(old), Scheme::Across(new)) = (&self.scheme, &mut scheme) {
            new.keep_options(old);
        }
        self.scheme = scheme;
        self.alloc = alloc;
        Ok(stats)
    }

    /// Whether the device has degraded to read-only mode (spare blocks
    /// exhausted below [`aftl_flash::FaultConfig::min_spare_blocks`], or the
    /// allocator ran dry under fault injection). Reads are still served;
    /// writes fail with [`FlashError::ReadOnlyMode`].
    #[inline]
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// Host writes rejected because the device was read-only.
    #[inline]
    pub fn write_rejections(&self) -> u64 {
        self.write_rejections
    }

    /// The configuration the device was built from.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The underlying NAND array.
    #[inline]
    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    /// The active FTL scheme.
    #[inline]
    pub fn scheme(&self) -> &dyn FtlScheme {
        self.scheme.as_dyn()
    }

    /// The latency/trace aggregator (see [`crate::observe`]).
    #[inline]
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Mutable access to the observer — fleet aggregation merges sibling
    /// devices' histograms into one observer before condensing.
    #[inline]
    pub fn observer_mut(&mut self) -> &mut Observer {
        &mut self.observer
    }

    /// Sectors per page of this device.
    #[inline]
    pub fn spp(&self) -> u32 {
        self.config.geometry.sectors_per_page()
    }

    /// Exported logical capacity in sectors.
    #[inline]
    pub fn logical_sectors(&self) -> u64 {
        self.scheme.as_dyn().logical_pages() * u64::from(self.spp())
    }

    /// Snapshot cumulative statistics (pair with deltas to bracket the
    /// measured window).
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut counters = *self.scheme().counters();
        // Write rejections and throttle delays happen at the device layer,
        // before the scheme sees the request; fold them into the counter
        // block here.
        counters.write_rejections = self.write_rejections;
        counters.throttled_writes = self.throttled_writes;
        StatsSnapshot {
            flash: self.array.stats().clone(),
            counters,
            cache: self.scheme().cache_stats(),
            map_engine: self.scheme().map_engine_stats(),
            learned: self.scheme().learned_stats(),
        }
    }

    /// Forget warm-up history: zero the op counters, chip timelines and
    /// observability sinks so measurements start clean (mapping state and
    /// data placement remain), and switch observation — the flash op log,
    /// the scheme's event log and the observer's intake — back on if aging
    /// switched it off.
    pub fn finish_warmup(&mut self) {
        self.array.reset_stats();
        self.array.reset_timelines();
        self.observer.reset();
        self.observing = true;
        if self.observer.enabled() {
            self.array.enable_op_log();
            self.scheme.as_dyn_mut().set_event_log(true);
        }
    }

    /// Switch observation off until [`Self::finish_warmup`] — the flash op
    /// log, the scheme's event log and every observer call of
    /// [`Self::submit`]: aging's writes would only be recorded to be
    /// discarded there.
    pub(crate) fn unobserved(&mut self) {
        self.observing = false;
        self.array.disable_op_log();
        self.scheme.as_dyn_mut().set_event_log(false);
    }

    /// Clamp a request into the exported logical space (external traces may
    /// exceed the simulated capacity; the paper's replay tooling wraps
    /// offsets the same way). A request past the end wraps by whole pages,
    /// so it keeps its offset within its page — an aligned request stays
    /// aligned and an across-page one stays across — unless no placement
    /// with that offset fits, when it wraps by sectors.
    pub fn clamp(&self, req: &mut HostRequest) {
        let cap = self.logical_sectors();
        let len = u64::from(req.sectors).min(cap);
        req.sectors = len as u32;
        if req.sector.saturating_add(len) > cap {
            let spp = u64::from(self.spp());
            let offset = req.sector % spp;
            req.sector = if offset + len <= cap {
                // Start pages `p` with `p·spp + offset + len ≤ cap`.
                let pages = (cap - len - offset) / spp + 1;
                req.sector / spp % pages * spp + offset
            } else {
                req.sector % (cap - len + 1)
            };
        }
    }

    /// Service one host request at its arrival time: the device work
    /// (`Ssd::serve`, all that aging runs) plus its accounting — the
    /// request's own flash ops and, while observed, the observer's latency
    /// and GC-pause records.
    pub fn submit(&mut self, req: &HostRequest) -> Result<Completed> {
        let spp = self.spp();
        let before_reads = self.array.stats().reads.total();
        let before_programs = self.array.stats().programs.total();
        let (mut flash_reads, mut flash_programs) = (0, 0);
        let (outcome, gc, dispatch_ns) = self.serve(req, |ssd, outcome| {
            flash_reads = ssd.array.stats().reads.total() - before_reads;
            flash_programs = ssd.array.stats().programs.total() - before_programs;
            if ssd.observing {
                let phase = match req.kind {
                    ReqKind::Read => Phase::HostRead,
                    ReqKind::Write => Phase::HostWrite,
                };
                ssd.observer.absorb_ops(&mut ssd.array, phase);
                ssd.observer
                    .absorb_scheme_events(ssd.scheme.as_dyn_mut(), req.at_ns);
                ssd.observer.record_host(
                    req.kind,
                    outcome.complete_ns.saturating_sub(req.at_ns),
                    outcome.complete_ns,
                );
            }
            outcome
        })?;
        if self.observing {
            let gc_end = self.observer.absorb_ops(&mut self.array, Phase::Gc);
            if gc.triggered {
                if let Some(end) = gc_end {
                    // The pause a queued request would see: dispatch → last
                    // GC op completion of this slice.
                    self.observer
                        .record_gc_pause(end.saturating_sub(dispatch_ns), end);
                }
            }
        }

        Ok(Completed {
            kind: req.kind,
            across: req.is_across_page(spp),
            sectors: req.sectors,
            latency_ns: outcome.complete_ns.saturating_sub(req.at_ns),
            flash_reads,
            flash_programs,
            gc,
            served: outcome.served,
        })
    }

    /// The device work of one host request, without the accounting
    /// [`Self::submit`] adds: the read-only check, the write throttle, the
    /// request's OOB write group, the scheme call, the seal, and the GC
    /// slice after it. `served` takes the scheme's outcome between the
    /// scheme call and GC, where the request's own flash ops end. Returns
    /// what `served` made of it, the GC slice's report and the dispatch
    /// time (the arrival, plus any throttle delay). Aging calls this
    /// alone, dropping the outcome: it keeps no account.
    #[inline(always)]
    pub(crate) fn serve<T>(
        &mut self,
        req: &HostRequest,
        served: impl FnOnce(&mut Self, ServiceOutcome) -> T,
    ) -> Result<(T, GcReport, Nanos)> {
        debug_assert!(
            req.sector + u64::from(req.sectors) <= self.logical_sectors(),
            "request outside logical space (call clamp first)"
        );
        if self.read_only && req.kind == ReqKind::Write {
            self.write_rejections += 1;
            return Err(FlashError::ReadOnlyMode);
        }
        // Near-full write-admission throttle: delay (not reject) writes
        // while free space sits below the throttle mark, so GC keeps pace
        // and the device degrades gracefully instead of stalling whole
        // queues behind an urgent atomic episode. Disabled by default.
        let tuning = self.config.scheme_cfg.gc;
        let mut dispatch_ns = req.at_ns;
        if req.kind == ReqKind::Write
            && tuning.throttle_fraction > 0.0
            && self.alloc.free_fraction() < tuning.throttle_fraction
        {
            dispatch_ns = dispatch_ns.saturating_add(tuning.throttle_delay_ns);
            self.throttled_writes += 1;
        }

        // With a crash armed, every write is one OOB write group: its pages
        // share a group id and the group commits only when sealed below. A
        // power cut mid-write leaves the group unsealed, so recovery rolls
        // the whole request back instead of exposing it half-written.
        if req.kind == ReqKind::Write {
            self.array.oob_begin_group();
        }
        let mut env = FtlEnv {
            array: &mut self.array,
            alloc: &mut self.alloc,
            now_ns: dispatch_ns,
        };
        let outcome = match req.kind {
            ReqKind::Write => self.scheme.as_dyn_mut().write(&mut env, req),
            ReqKind::Read => self.scheme.as_dyn_mut().read(&mut env, req),
        };
        let outcome = match outcome {
            Ok(o) => o,
            // Under fault injection, running out of free blocks is a
            // degradation event (blocks were retired), not a sizing bug:
            // the device drops to read-only instead of aborting the run.
            Err(FlashError::NoFreeBlocks) if self.degrades() => {
                self.read_only = true;
                self.write_rejections += 1;
                return Err(FlashError::ReadOnlyMode);
            }
            Err(e) => return Err(e),
        };
        // The write is durable: seal (commit) its group before anything
        // else can run. GC after this point journals implicitly committed
        // pages (group 0).
        if req.kind == ReqKind::Write {
            self.array.oob_seal_group();
        }
        let served = served(self, outcome);

        // GC runs after the request so its ops are not attributed to it.
        // With preemption enabled this is one budgeted slice; the parked
        // episode resumes after the next write (or in idle gaps).
        let mut env = FtlEnv {
            array: &mut self.array,
            alloc: &mut self.alloc,
            now_ns: dispatch_ns,
        };
        // Power dying during this GC slice leaves the host write above
        // acked and sealed, so the request itself succeeded; the outage
        // surfaces on the next submit.
        let gc = self.scheme.as_dyn_mut().maybe_gc(&mut env);
        let gc = self.settle_gc(gc)?;
        Ok((served, gc, dispatch_ns))
    }

    /// Run idle (background) GC during a host arrival gap
    /// `[now_ns, until_ns)`. The page budget is the gap divided by one
    /// read+program migration cost, so idle work never runs past the next
    /// arrival by more than one copy. No-op unless the scheme's
    /// `GcTuning::idle_headroom` enables idle GC.
    pub fn on_idle(&mut self, now_ns: Nanos, until_ns: Nanos) -> Result<GcReport> {
        let tuning = self.config.scheme_cfg.gc;
        if tuning.idle_headroom <= 0.0 || until_ns <= now_ns {
            return Ok(GcReport::default());
        }
        let per_page = self
            .config
            .timing
            .read_ns
            .saturating_add(self.config.timing.program_ns)
            .max(1);
        let budget = (until_ns - now_ns) / per_page;
        if budget == 0 {
            return Ok(GcReport::default());
        }
        let mut env = FtlEnv {
            array: &mut self.array,
            alloc: &mut self.alloc,
            now_ns,
        };
        let gc = self.scheme.as_dyn_mut().idle_gc(&mut env, budget);
        let gc = self.settle_gc(gc)?;
        self.observer.absorb_ops(&mut self.array, Phase::Gc);
        Ok(gc)
    }

    /// Whether running out of blocks degrades the device to read-only
    /// instead of failing the run: blocks were retired by injected faults
    /// or wear, not lost to a sizing bug.
    fn degrades(&self) -> bool {
        self.config.fault.injects() || self.config.fault.wears()
    }

    /// The outcome of a GC slice, with the failures a device survives
    /// absorbed: a degrading device out of blocks goes read-only, and a
    /// power cut ends the slice (no host request is in flight). Below the
    /// spare-block floor the device goes read-only too.
    #[inline(always)]
    fn settle_gc(&mut self, gc: Result<GcReport>) -> Result<GcReport> {
        let gc = match gc {
            Ok(gc) => gc,
            Err(FlashError::NoFreeBlocks) if self.degrades() => {
                self.read_only = true;
                GcReport::default()
            }
            Err(FlashError::PowerCut) => GcReport::default(),
            Err(e) => return Err(e),
        };
        let spare = self.config.fault.min_spare_blocks;
        if spare > 0 && self.alloc.free_blocks() < u64::from(spare) {
            self.read_only = true;
        }
        Ok(gc)
    }

    /// One stage of request-ahead prefetch for logical page `lpn` of a
    /// request this device serves a few requests from now
    /// ([`Scheme::prefetch`]): a hint to the CPU that changes no device
    /// state and no simulated number.
    #[inline]
    pub(crate) fn prefetch(&self, lpn: u64, stage: PrefetchStage) {
        self.scheme.prefetch(&self.array, lpn, stage);
    }

    /// The host request a trace record asks of this device, clamped into
    /// its logical space.
    pub fn request(&self, rec: &IoRecord) -> HostRequest {
        let mut req = HostRequest {
            at_ns: rec.at_ns,
            sector: rec.sector,
            sectors: rec.sectors,
            kind: match rec.op {
                IoOp::Read => ReqKind::Read,
                IoOp::Write => ReqKind::Write,
            },
            version: 0,
        };
        self.clamp(&mut req);
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WarmupConfig;
    use crate::experiment::run_on_device_keep;
    use aftl_core::scheme::SchemeKind;
    use aftl_flash::{FaultConfig, Ppn};
    use aftl_trace::Trace;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn tiny(scheme: SchemeKind) -> Ssd {
        Ssd::new(SimConfig::test_tiny(scheme)).unwrap()
    }

    #[test]
    fn a_recovered_scheme_keeps_its_event_log() {
        // An area (4+6), an AMerge (6+6) and an ARollback (2+8), before
        // and after a power cycle: each reaches the latency histograms.
        let mut ssd = tiny(SchemeKind::Across);
        ssd.arm_crash(u64::MAX / 2);
        let three = |ssd: &mut Ssd| {
            for (sector, sectors) in [(4, 6), (6, 6), (2, 8)] {
                ssd.submit(&HostRequest::write(0, sector, sectors)).unwrap();
            }
            let b = ssd.observer().breakdown();
            (b.amerge.count, b.arollback.count)
        };
        assert_eq!(three(&mut ssd), (1, 1));
        ssd.power_cycle_recover().unwrap();
        assert_eq!(three(&mut ssd), (2, 2), "events lost after recovery");
        let c = ssd.scheme().counters();
        let merges = c.profitable_amerge + c.unprofitable_amerge;
        assert_eq!((merges, c.arollbacks), (1, 1), "the rebuilt scheme's own");
    }

    #[test]
    fn a_recovered_scheme_keeps_amerge_off() {
        let config = SimConfig::test_tiny(SchemeKind::Across);
        let options = aftl_core::AcrossOptions {
            enable_amerge: false,
        };
        let across =
            aftl_core::AcrossFtl::with_options(&config.geometry, config.scheme_cfg, options);
        let mut ssd = Ssd::with_scheme(config, Scheme::Across(across)).unwrap();
        ssd.arm_crash(u64::MAX / 2);
        ssd.submit(&HostRequest::write(0, 4, 6)).unwrap();
        ssd.power_cycle_recover().unwrap();
        // Overlapping updates of the recovered area, each of whose union
        // fits one page: AMerge would take every one of them.
        for (sector, sectors) in [(6, 6), (4, 6), (5, 4)] {
            ssd.submit(&HostRequest::write(0, sector, sectors)).unwrap();
        }
        let c = ssd.scheme().counters();
        assert_eq!(c.profitable_amerge + c.unprofitable_amerge, 0);
        assert!(c.arollbacks > 0, "the overlapping updates rolled back");
    }

    #[test]
    fn a_fork_equals_a_freshly_aged_device() {
        // Faults and crash journaling armed, aged to ~60 % used.
        let config = |scheme| SimConfig {
            fault: FaultConfig {
                seed: 9,
                read_fail_rate: 0.01,
                program_fail_rate: 0.005,
                ..FaultConfig::disabled()
            },
            warmup: WarmupConfig {
                used_fraction: 0.6,
                valid_fraction: 0.3,
                seed: 5,
            },
            ..SimConfig::test_tiny(scheme)
        };
        let armed = |config: &SimConfig| {
            let mut ssd = Ssd::new(config.clone()).unwrap();
            ssd.arm_crash(u64::MAX / 2);
            ssd
        };
        let mut rng = SmallRng::seed_from_u64(31);
        let records = (0..400)
            .map(|i| IoRecord {
                at_ns: i * 1_000,
                sector: rng.random_range(0..1_500),
                sectors: [1, 2, 4, 8, 12, 16][rng.random_range(0..6usize)],
                op: if rng.random_bool(0.6) {
                    IoOp::Write
                } else {
                    IoOp::Read
                },
            })
            .collect();
        let trace = Trace::new("mixed", records);
        // The replay's faults and report, then a power cycle's cost and
        // mapping.
        let run = |ssd: Ssd| {
            let (mut report, mut ssd) = run_on_device_keep(ssd, &trace).unwrap();
            report.wall_seconds = 0.0;
            let faults = report.flash.read_faults + report.flash.program_faults;
            let json = serde_json::to_string(&report).unwrap();
            let recovered = ssd.power_cycle_recover().unwrap();
            (faults, json, recovered, ssd.scheme().capture_image())
        };
        for kind in SchemeKind::WITH_LEARNED {
            let config = config(kind);
            let mut source = armed(&config);
            crate::warmup::age(&mut source, &config.warmup).unwrap();
            let before = format!("{:?}", source.snapshot());
            let fresh = run(armed(&config));
            assert!(fresh.0 > 0, "{}: no fault fired", kind.name());
            assert_eq!(run(source.fork()), fresh, "{}: first fork", kind.name());
            assert_eq!(run(source.fork()), fresh, "{}: second fork", kind.name());
            let after = format!("{:?}", source.snapshot());
            assert_eq!(after, before, "{}: forks share state", kind.name());
        }
    }

    #[test]
    fn throttle_delays_writes_below_the_free_mark_and_never_reads() {
        let mut aged = tiny(SchemeKind::Baseline);
        let warmup = WarmupConfig {
            used_fraction: 0.6,
            valid_fraction: 0.3,
            seed: 5,
        };
        crate::warmup::age(&mut aged, &warmup).unwrap();
        let free = aged.alloc.free_fraction();
        let delay = 1_234_567;
        let mut throttled = aged.fork();
        let tuning = &mut throttled.config.scheme_cfg.gc;
        (tuning.throttle_fraction, tuning.throttle_delay_ns) = (0.9, delay);
        assert!(free < tuning.throttle_fraction, "free fraction {free}");
        let mut plain = aged.fork();

        // Issued long after aging's last op, so every chip is idle and the
        // delay is all that separates the two devices.
        let at = 1 << 50;
        let mut w = HostRequest::write(at, 8, 8);
        w.version = 1;
        let slow = throttled.submit(&w).unwrap();
        let fast = plain.submit(&w).unwrap();
        assert_eq!(slow.latency_ns, fast.latency_ns + delay);
        assert_eq!(throttled.snapshot().counters.throttled_writes, 1);
        assert_eq!(plain.snapshot().counters.throttled_writes, 0);

        let r = HostRequest::read(at << 1, 8, 8);
        let slow = throttled.submit(&r).unwrap();
        let fast = plain.submit(&r).unwrap();
        assert_eq!(slow.latency_ns, fast.latency_ns, "a read is not throttled");
        assert_eq!(throttled.snapshot().counters.throttled_writes, 1);
    }

    #[test]
    fn submit_roundtrip_all_schemes() {
        for kind in SchemeKind::ALL {
            let mut ssd = tiny(kind);
            let mut w = HostRequest::write(0, 4, 8);
            w.version = 1;
            let cw = ssd.submit(&w).unwrap();
            assert_eq!(cw.kind, ReqKind::Write);
            assert!(cw.across, "4..12 spans two 8-sector pages");
            assert!(cw.flash_programs >= 1);

            let r = HostRequest::read(10, 4, 8);
            let cr = ssd.submit(&r).unwrap();
            assert_eq!(cr.served.len(), 8);
            assert!(
                cr.served.iter().all(|s| s.version == 1),
                "{}: {:?}",
                kind.name(),
                cr.served
            );
        }
    }

    #[test]
    fn across_write_program_counts_differ_by_scheme() {
        // The paper's core claim at the single-request level: baseline
        // needs 2 programs for an across-page write, Across-FTL needs 1.
        let mut base = tiny(SchemeKind::Baseline);
        let mut across = tiny(SchemeKind::Across);
        let w = HostRequest::write(0, 4, 8);
        assert_eq!(base.submit(&w).unwrap().flash_programs, 2);
        assert_eq!(across.submit(&w).unwrap().flash_programs, 1);
    }

    #[test]
    fn clamp_wraps_out_of_range_requests() {
        let ssd = tiny(SchemeKind::Baseline);
        let cap = ssd.logical_sectors();
        let mut req = HostRequest::write(0, cap + 5, 4);
        ssd.clamp(&mut req);
        assert!(req.sector + u64::from(req.sectors) <= cap);
    }

    #[test]
    fn latency_reflects_arrival_time() {
        let mut ssd = tiny(SchemeKind::Baseline);
        let w = HostRequest::write(1000, 0, 8);
        let c = ssd.submit(&w).unwrap();
        // Unit timing: program = 10 ns.
        assert!(c.latency_ns >= 10);
        assert!(c.latency_ns < 1000, "latency measured from arrival");
    }

    #[test]
    fn observer_captures_host_and_flash_latencies() {
        let mut config = SimConfig::test_tiny(SchemeKind::Across);
        config.observe.trace.enabled = true;
        let mut ssd = Ssd::new(config).unwrap();
        assert!(ssd.observer().enabled());

        let w = HostRequest::write(0, 4, 8); // across-page write
        ssd.submit(&w).unwrap();
        let r = HostRequest::read(10, 4, 8);
        ssd.submit(&r).unwrap();

        let b = ssd.observer().breakdown();
        assert_eq!(b.host_write.count, 1);
        assert_eq!(b.host_read.count, 1);
        assert!(b.host_write.p50_ns > 0);
        // The trace saw at least the two host completions.
        let ring = ssd.observer().events().unwrap();
        assert!(ring.len() >= 2);
        let jsonl = ring.to_jsonl();
        assert_eq!(jsonl.lines().count(), ring.len());

        // finish_warmup clears the measured window.
        ssd.finish_warmup();
        assert_eq!(ssd.observer().breakdown().host_write.count, 0);
        assert_eq!(ssd.observer().trace_events_total(), 0);
    }

    #[test]
    fn an_unobserved_device_records_nothing() {
        let mut config = SimConfig::test_tiny(SchemeKind::Across);
        config.observe.trace.enabled = true;
        let mut ssd = Ssd::new(config).unwrap();
        ssd.unobserved();
        // An area, an AMerge, an ARollback, then page overwrites of 200
        // LPNs (GC runs) and reads of each.
        for (sector, sectors) in [(4, 6), (6, 6), (2, 8)] {
            ssd.submit(&HostRequest::write(0, sector, sectors)).unwrap();
        }
        for i in 0..2_000 {
            let sector = (i * 7 % 200) * 8;
            ssd.submit(&HostRequest::write(i, sector, 8)).unwrap();
            ssd.submit(&HostRequest::read(i, sector, 8)).unwrap();
        }
        assert!(ssd.scheme().counters().arollbacks > 0 && ssd.array().stats().erases > 0);
        let b = ssd.observer().breakdown();
        for kind in crate::observe::OpKind::ALL {
            assert_eq!(b.get(kind).count, 0, "{kind:?} recorded while unobserved");
        }
        assert_eq!(ssd.observer().trace_events_total(), 0);
    }

    /// Runs both stages of request-ahead prefetch on LPNs mapped and
    /// unmapped, the last LPN of the logical space and LPNs past it, and
    /// PPNs no page has.
    fn prefetch_everywhere(ssd: &Ssd) {
        let end = ssd.scheme().logical_pages();
        let lpns = (0..40).chain([end - 1, end, end + 5, u64::MAX]);
        for stage in [PrefetchStage::Far, PrefetchStage::Near] {
            for lpn in lpns.clone() {
                ssd.scheme.prefetch(ssd.array(), lpn, stage);
                ssd.prefetch(lpn, stage);
            }
        }
        let total = ssd.array().geometry().total_pages();
        for ppn in [Ppn::INVALID, Ppn(total), Ppn(u64::MAX - 1)] {
            ssd.array().prefetch_page(ppn);
        }
    }

    #[test]
    fn prefetch_is_inert() {
        let state = |ssd: &Ssd| {
            let image = ssd.scheme().capture_image();
            let table = ssd.scheme().mapping_table_bytes();
            (format!("{:?}", ssd.snapshot()), table, image)
        };
        for kind in SchemeKind::WITH_LEARNED {
            // Never driven: no table built yet, and prefetch builds none.
            let mut ssd = tiny(kind);
            let before = state(&ssd);
            prefetch_everywhere(&ssd);
            assert_eq!(state(&ssd), before, "{}: never driven", kind.name());
            // Whole pages, an across-page request and sub-page pieces
            // (MRSM's sub-mapped LPNs) over LPNs 0..6; 6.. stay unmapped.
            for (sector, sectors) in [(0, 16), (4, 8), (17, 3), (26, 2), (33, 15)] {
                ssd.submit(&HostRequest::write(0, sector, sectors)).unwrap();
            }
            let before = state(&ssd);
            prefetch_everywhere(&ssd);
            assert_eq!(state(&ssd), before, "{}: driven", kind.name());
        }
    }

    #[test]
    fn observer_disabled_keeps_op_log_off() {
        let mut config = SimConfig::test_tiny(SchemeKind::Baseline);
        config.observe = crate::config::ObserveConfig::disabled();
        let mut ssd = Ssd::new(config).unwrap();
        assert!(!ssd.observer().enabled());
        assert!(!ssd.array().op_log_enabled());
        ssd.submit(&HostRequest::write(0, 0, 8)).unwrap();
        assert_eq!(ssd.observer().breakdown().host_write.count, 0);
    }

    #[test]
    fn request_converts_ops() {
        let mut ssd = tiny(SchemeKind::Across);
        let rec = IoRecord {
            at_ns: 5,
            sector: 0,
            sectors: 8,
            op: IoOp::Write,
        };
        let c = ssd.submit(&ssd.request(&rec)).unwrap();
        assert_eq!(c.kind, ReqKind::Write);
        let rec = IoRecord {
            at_ns: 6,
            sector: 0,
            sectors: 8,
            op: IoOp::Read,
        };
        assert_eq!(ssd.submit(&ssd.request(&rec)).unwrap().kind, ReqKind::Read);
    }
}
